"""Compiled kernel for the built-in models: pairs and paths.

_pair.c runs coupled pairs of either scheme operation for operation as
driver._merge does, and adaptive paths as scheme.simulate_path does, so
its results are byte-identical to the Python loops'.

run_block runs a block of consecutive seeds of any size in one call
(tamsde_block): the kernel seeds each seed's Philox itself, with its own
port of numpy's SeedSequence and Philox, so each seed draws the normals a
fresh NoiseSource(seed) draws (the port has no 32-bit output, which
numpy's normal never draws: that slot of its bitgen_t aborts); it runs
that seed's pair or path and returns what a caller keeps of it (a pair's
terminal states and step counts, a path's terminal state and step count,
or the PathExplosion its own run raises), so no NoiseSource, sample or
trajectory is built per seed.  The kernel keeps four seeds of a block
in flight, each a lane with its own Philox: a pass gives every lane one
event of its pair or one step of its path, and a lane whose seed is over
refills with the block's next seed.  The pair event and the path step
are each written once, so a seed runs the same operations in the same
order in any lane, and its outcome does not depend on the block it runs
in; the lanes only let the processor overlap the seeds' chains of
dependent operations.  A Monte Carlo cell runs its seeds as blocks, and a
single coupled pair is a block of one: one lane.

run_path runs a path whose trajectory is kept, on the caller's
NoiseSource, as one lane running the same path step (tamsde_path): it
draws on the source's own generator, numpy's Philox, through that bit
generator's bitgen_t and under its lock, as Generator's own methods do,
adds each draw's duration to the source's clock, and leaves the source as
the Python loop's draws leave it.

run_block and run_path answer every call, and are the one place that
chooses between C and the reference loops, driver._merge and
scheme._path_loop, which the tests compare the kernel against.  One rule,
_library_for, says which models C runs: the three built-ins.  The
reference loops run any other model (JSON term models and library
callables), which neither loads nor builds the kernel, every block and
path when the kernel cannot be built, and a path whose noise source is not
a NoiseSource itself or holds buffered normals; a declined block runs each
seed on NoiseSource(seed), a declined path on the caller's source, and
both give the records or Trajectory C gives.  _seeded is the one loop
that runs a block seed by seed, keeping each seed's record or its
PathExplosion: the declined block's, and montecarlo's for a rebound path
function.  The loops are called through their modules, so a caller that
rebinds one there sees every call.

The kernel is built with the host's `cc` against numpy's bitgen.h and
libnpyrandom.a when a process first runs a built-in model, never at
import, and cached in the first usable directory of
$XDG_CACHE_HOME/tamsde, ~/.cache/tamsde and a per-user directory under
tempfile.gettempdir(), under a name keyed by the sha256 of the source,
the bytes of bitgen.h and libnpyrandom.a, whose normals it links, the
flags and the machine type (os.uname().machine).  Those files are found
through numpy's import spec, so loading a cached build, and a block run
in C, import no numpy, and no build tool either: only a build imports
subprocess.  A build is renamed into place from a temporary name, so
processes that build at once never see a half-written file, and a cached
file that another user owns or can write is never loaded.  Loading a
cached build refreshes its modification time and deletes the directory's
other builds unused for _STALE_S, so stale builds do not pile up while
versions in use side by side are kept.
Loading is tried once per process; with no numpy header or archive, or a
failed build, every pair and path takes the reference loops.  A missing
compiler is a failed build: `cc` is run by name, and with none on PATH the
run fails as a compiler that fails does.
"""

import contextlib
import ctypes
import functools
import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile
import time

from . import driver, scheme
from .driver import NoiseSource
from .errors import InputError, PathExplosion
from .model import get_model
from .scheme import Trajectory, _stop, _tam_leg, _tm_leg

__all__ = ["library", "run_block", "run_path"]

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
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120
# a cached build of another source or numpy unused for this long is deleted
# when a build is loaded from its directory; builds in use, such as two
# versions run side by side, are kept
_STALE_S = 30 * 24 * 3600
_EXPORTS = ("tamsde_block", "tamsde_path", "tamsde_free")

# C model numbers are positions in this tuple (enum in _pair.c)
_MODELS = ("model1", "model2", "gbm")
# the return code of a path whose grid could not be stored (enum in _pair.c)
_NO_MEMORY = 3
# no pair can spend 2**63 - 1 steps, so a larger budget is never reached
# either and is passed to C as this
_INT64_MAX = 2 ** 63 - 1


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
    """The kernel library directory/name; None if absent, not private,
    unloadable or without one of its functions."""
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
    lib.tamsde_path.restype = ctypes.c_int
    lib.tamsde_path.argtypes = ([ctypes.c_int] + [ctypes.c_double] * 5
                                + [ctypes.c_longlong] + [ctypes.c_void_p] * 5)
    lib.tamsde_free.argtypes = [ctypes.c_void_p]
    lib.tamsde_free.restype = None
    lib.tamsde_block.argtypes = ([ctypes.c_int] * 3 + [ctypes.c_double] * 6
                                 + [ctypes.c_longlong, ctypes.c_char_p,
                                    ctypes.c_size_t, ctypes.c_longlong]
                                 + [ctypes.c_void_p] * 3)
    lib.tamsde_block.restype = None
    return lib


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
        dirs = list(_cache_dirs())
        for directory in dirs:
            lib = _load(directory, name)
            if lib is not None:
                return lib
        with tempfile.TemporaryDirectory(prefix="tamsde-build-") as tmp:
            if not _compile(source, os.path.join(tmp, name)):
                return None
            for directory in dirs:
                if _install(os.path.join(tmp, name), directory, name):
                    lib = _load(directory, name)
                    if lib is not None:
                        return lib
            # no usable cache: the loaded build outlives its deleted file
            return _open(tmp, name)
    except OSError:  # no usable temporary directory, or writing to it failed
        return None


# numpy's type string of a native double, np.dtype(np.float64).str
_FLOAT64 = ("<" if sys.byteorder == "little" else ">") + "f8"


class _Doubles:
    """n doubles allocated by the kernel, seen by numpy without a copy.

    numpy keeps this object, through its array interface, as the base of
    the array on the doubles, and every view keeps that array or this
    object, so it goes after the last of them and frees the doubles then.
    """

    def __init__(self, free, pointer, n):
        self._free = free
        self._pointer = pointer
        self.__array_interface__ = {"version": 3, "shape": (n,),
                                    "typestr": _FLOAT64,
                                    "data": (pointer, False)}

    def __del__(self):
        self._free(self._pointer)


def run_path(model, config, noise):
    """One adaptive path on noise, as a Trajectory: in C when the kernel
    runs it, else by scheme._path_loop, with the same bits either way.

    config is the path's checked SchemeConfig.  The kernel takes a path of
    a built-in model on a NoiseSource itself, not a subclass whose draws
    may differ, that holds no buffered normals.  It draws on the source's
    generator, numpy's Philox, made here if the source has none yet, and
    leaves the source as _path_loop's draws leave it: the same clock and
    the same next draw.  A path that cannot go on raises the PathExplosion
    _path_loop raises, through the same _stop.
    """
    number, lib = _library_for(model)
    bitgen = (noise._bit_generator()
              if lib is not None and type(noise) is NoiseSource else None)
    if bitgen is None:
        return scheme._path_loop(model, config, noise)
    clock = ctypes.c_double(noise.current_time)
    out = (ctypes.c_double * 2)()
    steps = ctypes.c_longlong()
    grid = (ctypes.c_void_p * 3)()
    # the bit generator's own lock, which Generator's methods hold too
    with bitgen.lock:
        status = lib.tamsde_path(
            number, config.delta, config.h0, config.l0, model.x0,
            config.t_end, min(config.max_steps, _INT64_MAX),
            bitgen.ctypes.bit_generator, ctypes.byref(clock), out,
            ctypes.byref(steps), grid)
    # the source's clock advanced by the kernel's draws; no drawn normal
    # was unread, so the source's next draw refills from the generator
    noise.current_time = clock.value
    n = steps.value
    if status == _NO_MEMORY:
        raise MemoryError(f"no memory to store a path of {n} steps")
    if status:  # FINE_STOP: the path's one leg cannot go on
        raise _stop(None, out[1], out[0], n, config.max_steps)
    from numpy import asarray
    free = lib.tamsde_free
    return Trajectory(*(asarray(_Doubles(free, pointer, size))
                        for pointer, size in zip(grid, (n + 1, n + 1, n))), n)


def _seeded(seeds, run):
    """run(seed)'s record for each seed, in seed order, or the
    PathExplosion it raised: the one per-seed loop of a block that does
    not run in C."""
    rows = []
    for seed in seeds:
        try:
            rows.append(run(seed))
        except PathExplosion as exc:
            rows.append(exc)
    return rows


def _reference_block(model, config, seeds, pair):
    """run_block's records by the reference loops: each seed's pair by
    driver._merge, or its path by scheme._path_loop, storing no grid, on
    NoiseSource(seed)."""
    if pair is None:
        return _seeded(seeds, lambda seed: scheme._path_loop(
            model, config, NoiseSource(seed), keep=False))
    adaptive, delta_coarse = pair
    # _merge proposes each leg at x0 before it first advances, so one pair
    # of legs serves every seed
    legs = [_tam_leg(model, delta, config.h0, config.l0) if adaptive
            else _tm_leg(model, delta)
            for delta in (config.delta, delta_coarse)]
    return _seeded(seeds, lambda seed: driver._merge(
        *legs, model.x0, config.t_end, NoiseSource(seed), config.max_steps))


def run_block(model, config, seeds, pair=None):
    """The outcome of each seed of a block: in one C call when the kernel
    runs it, else by the reference loops (_reference_block).

    seeds is a range of step 1 of non-negative integers, else InputError
    is raised, since the kernel steps the first seed by one.  pair
    is (adaptive, delta_coarse) for coupled pairs, with adaptive picking
    two tamed-adaptive legs (h0 and l0 from config) over two fixed-step
    legs, and None for single paths; config is the checked SchemeConfig of
    every seed's pair or path, with the fine leg's delta.  Each seed runs
    as on a fresh NoiseSource(seed), so its outcome is _merge's or
    simulate_path's there: a pair's (fine state, coarse state, fine steps,
    coarse steps), a path's (terminal state, step count), or the
    PathExplosion that run raises, built by the same _stop.  The kernel
    takes a block of a built-in model, and a path of its block stores no
    trajectory.
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
    out = (ctypes.c_double * ((legs + 1) * n))()
    steps = (ctypes.c_longlong * (legs * n))()
    status = (ctypes.c_int * n)()
    words, n_words = _words(seeds.start)
    # room for the one word a carry past the top word adds (next_seed)
    seed = ctypes.create_string_buffer(words, len(words) + 4)
    adaptive, delta_coarse = pair or (True, 0.0)
    lib.tamsde_block(legs, number, int(adaptive), config.delta, delta_coarse,
                     config.h0, config.l0, model.x0, config.t_end,
                     min(config.max_steps, _INT64_MAX), seed, n_words, n, out,
                     steps, status)
    # each leg's states, then each leg's step counts, in seed order
    rows = list(zip(*(out[j::legs + 1] for j in range(legs)),
                    *(steps[j::legs] for j in range(legs))))
    for i, code in enumerate(status[:]):
        if code:  # FINE_STOP (1) or COARSE_STOP (2): that leg stopped
            leg = code - 1
            rows[i] = _stop(("fine", "coarse")[leg] if pair else None,
                            out[(legs + 1) * i + legs],
                            out[(legs + 1) * i + leg], steps[legs * i + leg],
                            config.max_steps)
    return rows
