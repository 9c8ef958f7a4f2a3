"""Compiled kernel for the built-in models: blocks of pairs and paths.

_pair.c runs coupled pairs of either scheme operation for operation as
driver._merge does, and adaptive paths as scheme._path_loop does, so
its results are byte-identical to the Python loops'.

run_block runs a block of consecutive seeds of any size in one call
(tamsde_block): the kernel seeds each seed's Philox itself, with its own
port of numpy's SeedSequence and Philox, so each seed draws the normals a
fresh NoiseSource(seed) draws (the port has no 32-bit output, which
numpy's normal never draws: that slot of its bitgen_t aborts); it runs
that seed's pair or path, by the runner its code names (paths, adaptive
pairs or fixed-step pairs), and returns what a caller keeps of it, the
block as columns (Block: each leg's terminal states and step counts, the
arrays C wrote in place, item i seed i's, and each failed seed's index
and the PathExplosion its own run raises), so no NoiseSource, sample,
trajectory or tuple is built per seed.  tamsde_block returns how many
seeds stopped, so a block in which none did reads no per-seed status.
A path's one leg is written as both legs, into the same arrays.  Every
route of a block gives its columns as arrays, which a pool sends back
as they are.  The kernel keeps several seeds of a
block in flight, each with its own Philox: a block's tamed-adaptive
pairs in three lanes (two for model2, whose pow calls keep the processor
busy with fewer), its paths and its fixed-step pairs one to an element
of a SIMD vector, in three vectors whose packed operations step every
element's seed at once: vectors of four doubles on an x86-64 host with
AVX2, of two elsewhere.  On a host with AVX2 a block of model1 or gbm
adaptive pairs runs one pair to an element of three four-wide vectors too,
once it has the seeds _pair.c's vector_pairs names for its model (where
the timings that set them are), on the runner that runs paths: a path is
a pair of one leg, and in each element of a pair a pass advances and
proposes only the leg that fires first, and a rarely taken masked step
fires the coarse leg where both are due.  model2's pairs, the two-wide
build's and small blocks' keep the lanes.  A pass gives every lane one
event of its pair, or every vector one step of its paths or one event of
its pairs, and a seed that is over is replaced by the block's next
seed.  Fixed-step pairs run in generations of up to three vectors' seeds
started together: a fixed-step leg's clock does not depend on its
state, so a generation has one timeline, whose
event times, firing legs, step counts and budget tests are worked out
once per event, and a seed that is over idles, drawing nothing, until
its generation ends.  The tamed-adaptive leg and its step are written
once, for a double and a vector alike, with the scheme's formulas (the
step rule among them), and both adaptive runners fire it: a lane's pair
event, and the vector runner's path step and pair event; the fixed-step
event is written once, and the code on vectors once for both widths,
so a seed runs the same operations in the same order in any lane or
element, and its outcome does not depend on the block it runs in or the
width; the lanes only let the processor overlap the seeds' chains of
dependent operations.  Every build has the two-wide code; on x86-64
Linux with glibc the four-wide code is built too, for AVX2, and
tamsde_init tests the processor once per process and has every block run
the four-wide code on a host with AVX2; lanes(lib) names the width it
picked.  A Monte Carlo cell runs its seeds as blocks, and a single
coupled pair is a block of one: one lane, or one vector for a fixed-step
pair.  The adaptive vector runner, when an element ran past its step
budget, which no seed's run does, or stayed at t_end with its stop lost,
ends the block: tamsde_block returns -1 and run_block raises
RuntimeError, a bug of the kernel, naming both causes, rather than
looping on.  Each seed draws numpy's normal on its own Philox: it takes
the ziggurat's fast path itself, with no branch on the random sign, and
hands every other output to numpy's random_standard_normal on a bit
generator that replays it first.  The fast path's tables are not copied
from numpy but probed off numpy's function
(tamsde_init), once per process, when _open loads a build and before any
block runs; the probe checks them on a fixed stream of normals against
numpy's function and, should one bit differ, leaves every draw to it.

cell_sums reduces a Monte Carlo cell's columns in C, on a port of
CPython's math.fsum (tamsde_sums), to the sums montecarlo's Python
reduction takes, bit for bit, raising the same errors; montecarlo calls
it for a cell of a model C runs, with the library _library_for gives.

run_block is the one entry point into C for a block, and the one place
that chooses between C and the reference loops, driver._merge and
scheme._path_loop, which the tests compare the kernel against.  A path
whose trajectory is kept (scheme.simulate_path) never comes here: it
runs _path_loop on the caller's source.  One rule, _library_for, says
which models C runs: the three built-ins.  The reference loops run a
block of any other model (JSON term models and library callables), which
neither loads nor builds the kernel, and every block when the kernel
cannot be built; a declined block runs each seed on NoiseSource(seed)
and gives the columns C gives.  _seeded is the one loop that runs a
block seed by seed, keeping each seed's record in the columns or its
PathExplosion: the declined block's, and, in the calling process,
montecarlo._run_cell's for a rebound path function.  The loops are
called through their modules, so a caller that rebinds one there sees
every call.

The kernel is built with the host's `cc` against numpy's bitgen.h and
libnpyrandom.a when a process first runs a built-in model, never at
import, at -O3 with -ffp-contract=off, so no a*b+c is fused and the bits
are the Python loops', and without -march=native, since the cache key
names only the machine type.  It is cached in the first usable directory
of $XDG_CACHE_HOME/tamsde, ~/.cache/tamsde and a per-user directory under
tempfile.gettempdir(), tried in that order, so a build cached in an
earlier one never asks for the temporary directory, under a name keyed
by the sha256 of the source, the bytes of bitgen.h and libnpyrandom.a,
whose normals it links, the flags and the machine type
(os.uname().machine).  Those files are found
through numpy's import spec, so loading a cached build, and a block run
in C, import no numpy, and no build tool either: only a build imports
subprocess.  A build is renamed into place from a temporary name, so
processes that build at once never see a half-written file, and a cached
file that another user owns or can write is never loaded.  Loading a
cached build refreshes its modification time and deletes the directory's
other builds unused for _STALE_S, so stale builds do not pile up while
versions in use side by side are kept.
Loading is tried once per process; with no numpy header or archive, or a
failed build, every block takes the reference loops.  A missing
compiler is a failed build: `cc` is run by name, and with none on PATH the
run fails as a compiler that fails does.
"""

import collections
import contextlib
import ctypes
import errno
import functools
import hashlib
import importlib.util
import os
import shutil
import tempfile
import time
from array import array

from . import driver, scheme
from .driver import NoiseSource
from .errors import InputError, PathExplosion
from .model import get_model
from .scheme import _stop, _tam_leg, _tm_leg

__all__ = ["Block", "library", "run_block"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pair.c")
# numpy's directory, found without importing numpy; without numpy,
# library() builds and loads nothing
_SPEC = importlib.util.find_spec("numpy")
_NUMPY = os.path.dirname(_SPEC.origin) if _SPEC else None
if _NUMPY is None:
    _INCLUDE = _HEADER = _ARCHIVE = None
else:
    # as numpy.get_include(): _core/include from numpy 2, core/include
    # before; the include directory is checked, not the package alone
    _INCLUDE = os.path.join(_NUMPY, "_core", "include")
    if not os.path.isdir(_INCLUDE):
        _INCLUDE = os.path.join(_NUMPY, "core", "include")
    _HEADER = os.path.join(_INCLUDE, "numpy", "random", "bitgen.h")
    _ARCHIVE = os.path.join(_NUMPY, "random", "lib", "libnpyrandom.a")
_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120
# a cached build of another source or numpy unused for this long is deleted
# when a build is loaded from its directory; builds in use, such as two
# versions run side by side, are kept
_STALE_S = 30 * 24 * 3600
_EXPORTS = ("tamsde_block", "tamsde_init", "tamsde_lanes", "tamsde_sums")

# C model numbers are positions in this tuple (enum in _pair.c)
_MODELS = ("model1", "model2", "gbm")
# no pair can spend 2**63 - 1 steps, so a larger budget is never reached
# either and is passed to C as this
_INT64_MAX = 2 ** 63 - 1
_NAN = float("nan")
# tamsde_block's runner codes (enum in _pair.c)
_PATHS, _PAIRS, _FIXED = range(3)
# the errors of tamsde_sums and tamsde_fsum by code (enum in _pair.c), as
# Python raises them: math.fsum's two, float ** overflowing (errno ERANGE)
# and a failed allocation
_ERRORS = (None, lambda: OverflowError("intermediate overflow in fsum"),
           lambda: ValueError("-inf + inf in fsum"),
           lambda: OverflowError(errno.ERANGE, os.strerror(errno.ERANGE)),
           MemoryError)
# one zero item of each column type, repeated into a block's columns: a
# state or stop time (double), a step count (long long), a status (int)
_DOUBLE, _STEPS, _STATUS = array("d", [0.0]), array("q", [0]), array("i", [0])

# A block's outcome as columns, in seed order, each an array: states holds
# each leg's terminal states (fine, then coarse; a path has one leg), steps
# each leg's step counts, and failures an (index in the block,
# PathExplosion) pair for each seed that stopped, whose entries in the
# columns are nan and 0.
Block = collections.namedtuple("Block", "states steps failures")


def _words(seed):
    """A non-negative integer seed as the kernel takes it: its 32-bit words,
    least significant first, as bytes, and their count (numpy's SeedSequence
    entropy; one word for 0)."""
    n = (seed.bit_length() + 31) // 32 or 1
    return seed.to_bytes(4 * n, "little"), n


def _ids(model):
    return (id(model.drift), id(model.diffusion), id(model.drift_prime),
            id(model.diffusion_prime))


# keyed by identity, not equality: only the built-in functions themselves
# are known to the kernel, and a user's callable need not be hashable.  The
# built-in functions live as long as the process, so no other object can
# take one of their ids.
_MODEL_NUMBERS = {_ids(get_model(name)): number
                  for number, name in enumerate(_MODELS)}


def _library_for(model):
    """The model's C number and the loaded kernel library, with None for
    the library when C cannot run the model.  Only a built-in model loads
    the library, or tries its build; any other model has no number."""
    number = _MODEL_NUMBERS.get(_ids(model))
    return number, None if number is None else library()


def _cache_dirs():
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg and os.path.isabs(xdg):
        yield os.path.join(xdg, "tamsde")
    home = os.path.expanduser("~")
    if home != "~":
        yield os.path.join(home, ".cache", "tamsde")
    yield os.path.join(tempfile.gettempdir(), f"tamsde-{os.getuid()}")


def _private(path):
    # owned by this user and writable by no one else, so no other user can
    # swap the file between this check and the load
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _open(directory, name):
    """The kernel library directory/name, its draw's tables filled; None if
    absent, not private, unloadable or without one of its functions."""
    path = os.path.join(directory, name)
    try:
        if not (_private(directory) and _private(path)):
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    # a library of that name without our functions is not the kernel
    if not all(hasattr(lib, f) for f in _EXPORTS):
        return None
    _declare(lib)
    # the draw's tables, filled once per process before any block runs
    lib.tamsde_init()
    return lib


def _declare(lib):
    """Declare the argument and result types of lib's block, sums and
    lanes functions."""
    lib.tamsde_block.argtypes = ([ctypes.c_int] * 2 + [ctypes.c_double] * 6
                                 + [ctypes.c_longlong, ctypes.c_char_p,
                                    ctypes.c_size_t, ctypes.c_longlong]
                                 + [ctypes.c_void_p] * 6)
    lib.tamsde_block.restype = ctypes.c_longlong
    lib.tamsde_sums.argtypes = ([ctypes.c_longlong] + [ctypes.c_void_p] * 2
                                + [ctypes.c_double] + [ctypes.c_void_p] * 4)
    lib.tamsde_sums.restype = ctypes.c_int
    lib.tamsde_lanes.restype = ctypes.c_char_p


def lanes(lib):
    """The vector code the kernel library lib runs a block's paths and
    fixed-step pairs on, as its tamsde_init picked it on this host:
    "avx2", four doubles to a vector, which runs larger blocks of model1
    and gbm adaptive pairs too, or "baseline", two."""
    return lib.tamsde_lanes().decode()


def _load(directory, name):
    """_open(directory, name); once loaded, the build is marked as used and
    the directory's other builds unused for _STALE_S are deleted."""
    lib = _open(directory, name)
    if lib is None:
        return None
    with contextlib.suppress(OSError):
        os.utime(os.path.join(directory, name))
    now = time.time()
    with contextlib.suppress(OSError), os.scandir(directory) as entries:
        for entry in entries:
            if (entry.name != name and entry.name.startswith("_pair-")
                    and entry.name.endswith(".so")):
                with contextlib.suppress(OSError):
                    if now - entry.stat().st_mtime > _STALE_S:
                        os.unlink(entry.path)
    return lib


def _command(cc, src, target):
    """The build line of the kernel: src compiled and linked into target."""
    return [cc, *_FLAGS, "-I", _INCLUDE, "-o", target, src, _ARCHIVE, "-lm"]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _compile(source, target):
    """Compile the source bytes into the shared library target; True if
    built.  With no `cc` on PATH the run raises FileNotFoundError, an
    OSError, so a missing compiler is one more failed build."""
    # imported by a build only, so a cached load does without it
    import subprocess
    src = os.path.join(os.path.dirname(target), "_pair.c")
    with open(src, "wb") as fh:
        fh.write(source)
    try:
        subprocess.run(_command("cc", src, target),
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=_BUILD_TIMEOUT_S,
                       check=True)
    except (OSError, subprocess.SubprocessError):
        return False
    return os.path.exists(target)


def _install(built, directory, name):
    """Copy built into directory as name through a temporary name; True if done."""
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory)
    except OSError:
        return False
    try:
        with os.fdopen(fd, "wb") as out, open(built, "rb") as src:
            shutil.copyfileobj(src, out)
        os.chmod(tmp, 0o755)
        os.replace(tmp, os.path.join(directory, name))
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return False
    return True


@functools.lru_cache(maxsize=None)
def library():
    """The loaded kernel library, or None when it cannot be built here.

    Tried once per process: the first call looks for a cached build and
    otherwise compiles one; later calls return the same answer.
    """
    # the build and the cache checks assume POSIX, and a build needs numpy
    if os.name != "posix" or _NUMPY is None:
        return None
    try:
        # the source, and numpy's header and archive it is built against
        source, header, archive = map(_read, (_SOURCE, _HEADER, _ARCHIVE))
    except OSError:
        return None
    key = hashlib.sha256(repr((_FLAGS, os.uname().machine)).encode())
    for part in (source, header, archive):
        key.update(hashlib.sha256(part).digest())
    name = f"_pair-{key.hexdigest()[:16]}.so"
    try:
        # tried one at a time, so a build cached in the first directory
        # never asks for the temporary directory, which the first
        # tempfile.gettempdir() of a process probes by writing a file there
        for directory in _cache_dirs():
            lib = _load(directory, name)
            if lib is not None:
                return lib
        with tempfile.TemporaryDirectory(prefix="tamsde-build-") as tmp:
            if not _compile(source, os.path.join(tmp, name)):
                return None
            for directory in _cache_dirs():
                if _install(os.path.join(tmp, name), directory, name):
                    lib = _load(directory, name)
                    if lib is not None:
                        return lib
            # no usable cache: the loaded build outlives its deleted file
            return _open(tmp, name)
    except OSError:  # no usable temporary directory, or writing to it failed
        return None


def _seeded(seeds, run, legs):
    """The Block of run(seed) for each seed, in seed order: its record,
    each of the legs' states then each leg's step count, across the
    columns, or the PathExplosion it raised as a failure.  The one per-seed
    loop of a block that does not run in C: a declined block's
    (_reference_block), and a cell's whose path function a caller has
    rebound, which montecarlo._run_cell settles and runs serially in the
    calling process, where the rebinding lives."""
    columns = [array(code) for code in "d" * legs + "q" * legs]
    failures = []
    for i, seed in enumerate(seeds):
        try:
            record = run(seed)
        except PathExplosion as exc:
            failures.append((i, exc))
            record = (_NAN,) * legs + (0,) * legs
        for column, value in zip(columns, record):
            column.append(value)
    return Block(tuple(columns[:legs]), tuple(columns[legs:]), failures)


def _reference_block(model, config, seeds, pair):
    """run_block's Block by the reference loops: each seed's pair by
    driver._merge, or its path by scheme._path_loop, storing no grid, on
    NoiseSource(seed)."""
    if pair is None:
        return _seeded(seeds, lambda seed: scheme._path_loop(
            model, config, NoiseSource(seed), keep=False), 1)
    adaptive, delta_coarse = pair
    # _merge proposes each leg at x0 before it first advances, so one pair
    # of legs serves every seed
    legs = [_tam_leg(model, delta, config.h0, config.l0) if adaptive
            else _tm_leg(model, delta)
            for delta in (config.delta, delta_coarse)]
    return _seeded(seeds, lambda seed: driver._merge(
        *legs, model.x0, config.t_end, NoiseSource(seed), config.max_steps), 2)


def run_block(model, config, seeds, pair=None):
    """The outcome of each seed of a block, as a Block: in one C call when
    the kernel runs it, else by the reference loops (_reference_block).

    seeds is a range of step 1 of non-negative integers, else InputError
    is raised, since the kernel steps the first seed by one.  pair
    is (adaptive, delta_coarse) for coupled pairs, with adaptive picking
    two tamed-adaptive legs (h0 and l0 from config) over two fixed-step
    legs, and None for single paths; config is the checked SchemeConfig of
    every seed's pair or path, with the fine leg's delta.  Each seed runs
    as on a fresh NoiseSource(seed), so its outcome is _merge's or
    simulate_path's there: a pair's fine and coarse states and step
    counts, a path's terminal state and step count, or the PathExplosion
    that run raises, built by the same _stop.  The kernel takes a block of
    a built-in model, and a path of its block stores no trajectory; its
    columns are the arrays it wrote.
    """
    if not (isinstance(seeds, range) and seeds.step == 1
            and seeds.start >= 0):
        raise InputError("seeds must be a range of step 1 from a "
                         f"non-negative integer, got {seeds!r}")
    number, lib = _library_for(model)
    if lib is None:
        return _reference_block(model, config, seeds, pair)
    n = len(seeds)
    legs = 1 if pair is None else 2
    x_f, t, n_f, status = _DOUBLE * n, _DOUBLE * n, _STEPS * n, _STATUS * n
    # a path's one leg is written as both legs
    x_c, n_c = (x_f, n_f) if pair is None else (_DOUBLE * n, _STEPS * n)
    block = Block((x_f, x_c)[:legs], (n_f, n_c)[:legs], [])
    adaptive, delta_coarse = pair or (True, 0.0)
    runner = _PATHS if pair is None else _PAIRS if adaptive else _FIXED
    words, n_words = _words(seeds.start)
    # room for the one word a carry past the top word adds (take, in _pair.c)
    seed = ctypes.create_string_buffer(words, len(words) + 4)
    stopped = lib.tamsde_block(
        runner, number, config.delta, delta_coarse, config.h0, config.l0,
        model.x0, config.t_end, min(config.max_steps, _INT64_MAX), seed,
        n_words, n, x_f.buffer_info()[0], x_c.buffer_info()[0],
        t.buffer_info()[0], n_f.buffer_info()[0], n_c.buffer_info()[0],
        status.buffer_info()[0])
    if stopped < 0:
        raise RuntimeError("tamsde kernel bug: in _pair.c's adaptive vector "
                           "runner a seed ran past its step budget or lost "
                           "its stop at t_end")
    for i, code in enumerate(status if stopped else ()):
        if code:  # FINE_STOP (1) or COARSE_STOP (2): that leg stopped
            leg = code - 1
            block.failures.append((i, _stop(
                ("fine", "coarse")[leg] if pair else None, t[i],
                block.states[leg][i], block.steps[leg][i], config.max_steps)))
            for j in range(legs):
                block.states[j][i], block.steps[j][i] = _NAN, 0
    return block


def cell_sums(lib, states, steps, p=None):
    """A Monte Carlo cell's sums, in C on the kernel library lib, as
    montecarlo's Python reduction takes them from its columns (arrays of
    equal length): (n_ok, sums, error).  A pair cell, with two state
    columns and p None, keeps each seed's squared difference unless nan; a
    path cell, with one, keeps |x| ** p if finite.  n_ok is the count of
    kept values and sums their fsum, the fsum of their squared deviations
    from its mean (0.0 when fewer than two are kept) and the fsum of each
    step column of steps.  error is None, or the exception the Python
    reduction raises, for the caller to raise once it has gated n_ok."""
    x_f, x_c = states[0], states[-1]
    n_f, n_c = [column.buffer_info()[0] for column in steps] or [None, None]
    kept, sums = ctypes.c_longlong(), (ctypes.c_double * 4)()
    code = lib.tamsde_sums(len(x_f), x_f.buffer_info()[0],
                           x_c.buffer_info()[0], p or 0.0, n_f, n_c,
                           ctypes.byref(kept), sums)
    return (kept.value, tuple(sums[:2 + len(steps)]),
            None if code == 0 else _ERRORS[code]())
