"""Compiled kernel for the built-in models: pairs, paths and the noise.

_pair.c runs coupled pairs of either scheme operation for operation as
driver._merge does, and adaptive paths as scheme.simulate_path does, so
its results are byte-identical to the Python loops'.  It also holds the
one generator of NoiseSource's stream, its own port of numpy's
SeedSequence and Philox, whose state is _Philox.  generator(seed) makes a
source's generator: that Philox whenever the kernel loads, and numpy's
Generator(Philox(SeedSequence(seed))), which draws the same normals, only
when it cannot.  So no numpy generator is built while the kernel loads.

run_block runs a block of consecutive seeds of any size in one call: the
kernel seeds each seed's Philox itself, as a fresh NoiseSource(seed) is
seeded, runs that seed's pair or path, and returns what a caller keeps of
it (a pair's terminal states and step counts, a path's terminal state
and step count, or the PathExplosion its own run raises), so no
NoiseSource, sample or trajectory is built per seed.  A Monte Carlo cell
runs its seeds as blocks, and a single coupled pair is a block of one.

run_path runs a path whose trajectory is kept, on the caller's
NoiseSource: it draws on the source's generator, adds each draw's
duration to the source's clock, and leaves the source as the Python
loop's draws leave it.

run_block and run_path return None, and the caller runs its Python loop,
the reference, for a model other than the three built-ins (JSON term
models and library callables) and for every block and path when the
kernel cannot be built; run_path also declines a noise source other than
a NoiseSource itself, one holding buffered normals or one whose generator
is numpy's (one rule, _philox).

The kernel is built with the host's `cc` against numpy's bitgen.h and
libnpyrandom.a when a process first needs it, never at import, and
cached in the first usable directory of $XDG_CACHE_HOME/tamsde,
~/.cache/tamsde and a per-user directory under tempfile.gettempdir(),
under a name keyed by the sha256 of the source, the flags, the machine
type and the numpy version, whose normals it links.  A build is renamed
into place from a temporary name, so processes that build at once never
see a half-written file, and a cached file that another user owns or can
write is never loaded.  Loading a cached build refreshes its modification
time and deletes the directory's other builds unused for _STALE_S, so
stale builds do not pile up while versions in use side by side are kept.
Loading is tried once per process; with no compiler, no numpy header or
archive, or a failed build, every pair and path takes the Python loop and
every source draws on numpy's generator.
"""

import contextlib
import ctypes
import fnmatch
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time

import numpy as np

from .driver import _BLOCK, NoiseSource
from .model import get_model
from .scheme import _stop

__all__ = ["generator", "library", "run_block", "run_path"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pair.c")
_INCLUDE = np.get_include()
_HEADER = os.path.join(_INCLUDE, "numpy", "random", "bitgen.h")
_ARCHIVE = os.path.join(os.path.dirname(np.__file__), "random", "lib",
                        "libnpyrandom.a")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120
# a cached build of another source or numpy unused for this long is deleted
# when a build is loaded from its directory; builds in use, such as two
# versions run side by side, are kept
_STALE_S = 30 * 24 * 3600
_EXPORTS = ("tamsde_path", "tamsde_free", "tamsde_seed", "tamsde_normals",
            "tamsde_pairs", "tamsde_paths")

# C model numbers are positions in this tuple (enum in _pair.c)
_MODELS = ("model1", "model2", "gbm")
# the return code of a path whose grid could not be stored (enum in _pair.c)
_NO_MEMORY = 3
# no pair can spend 2**63 - 1 steps, so a larger budget is never reached
# either and is passed to C as this
_INT64_MAX = 2 ** 63 - 1


class _Philox(ctypes.Structure):
    """numpy's Philox state as the kernel keeps it (struct philox in _pair.c)."""

    _fields_ = [("counter", ctypes.c_uint64 * 4), ("key", ctypes.c_uint64 * 2),
                ("buffer", ctypes.c_uint64 * 4), ("buffer_pos", ctypes.c_int),
                ("has_uint32", ctypes.c_int), ("uinteger", ctypes.c_uint32)]

    def standard_normal(self, n):
        """The next n normals, as numpy's Generator.standard_normal(n)."""
        out = np.empty(n)
        library().tamsde_normals(ctypes.byref(self), out.ctypes.data, n)
        return out


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


def _model_number(model):
    return _MODEL_NUMBERS.get(_ids(model))


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
    lib.tamsde_seed.argtypes = [ctypes.c_void_p, ctypes.c_char_p,
                                ctypes.c_size_t]
    lib.tamsde_normals.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                   ctypes.c_longlong]
    lib.tamsde_free.argtypes = [ctypes.c_void_p]
    seeds = [ctypes.c_longlong, ctypes.c_char_p, ctypes.c_size_t,
             ctypes.c_longlong] + [ctypes.c_void_p] * 3
    lib.tamsde_pairs.argtypes = ([ctypes.c_int] * 2 + [ctypes.c_double] * 6
                                 + seeds)
    lib.tamsde_paths.argtypes = ([ctypes.c_int] + [ctypes.c_double] * 5
                                 + seeds)
    lib.tamsde_seed.restype = lib.tamsde_normals.restype = None
    lib.tamsde_free.restype = None
    lib.tamsde_pairs.restype = lib.tamsde_paths.restype = None
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
            if entry.name != name and fnmatch.fnmatch(entry.name, "_pair-*.so"):
                with contextlib.suppress(OSError):
                    if now - entry.stat().st_mtime > _STALE_S:
                        os.unlink(entry.path)
    return lib


def _command(cc, src, target):
    """The build line of the kernel: src compiled and linked into target."""
    return [cc, *_FLAGS, "-I", _INCLUDE, "-o", target, src, _ARCHIVE, "-lm"]


def _compile(source, target):
    """Compile the source bytes into the shared library target; True if built."""
    cc = shutil.which("cc")
    if cc is None or not (os.path.isfile(_HEADER) and os.path.isfile(_ARCHIVE)):
        return False
    src = os.path.join(os.path.dirname(target), "_pair.c")
    with open(src, "wb") as fh:
        fh.write(source)
    try:
        subprocess.run(_command(cc, src, target),
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
    if os.name != "posix":  # the build and the cache checks assume POSIX
        return None
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    key = hashlib.sha256(
        source + repr((_FLAGS, platform.machine(), np.__version__)).encode())
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


def generator(seed):
    """The generator of NoiseSource(seed)'s stream, at its start.

    The kernel's Philox, seeded in C, when the kernel loads; numpy's
    Generator(Philox(SeedSequence(seed))) only when it cannot.  Both draw
    the same normals through standard_normal(n).
    """
    lib = library()
    if lib is None:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed)))
    rng = _Philox()
    lib.tamsde_seed(ctypes.byref(rng), *_words(seed))
    return rng


def _philox(noise):
    """The generator the kernel draws noise's normals on, or None when the
    noise must take the Python loop.

    The kernel takes a NoiseSource itself, not a subclass whose draws may
    differ, that holds no buffered normals and whose generator is the
    kernel's Philox, made here if the source has none yet.
    """
    if type(noise) is not NoiseSource or noise._idx != _BLOCK:
        return None
    if noise._rng is None:
        noise._rng = generator(noise.seed)
    # numpy's when the kernel cannot load, or made by a process without it
    return noise._rng if isinstance(noise._rng, _Philox) else None


def _hand_back(noise, clock):
    """Leave noise as its own draws would have: its clock advanced by the
    kernel's draws and its next draw the normal after their last."""
    noise.current_time = clock.value
    noise._buf = None  # the next draw refills from the generator


_FLOAT64 = np.dtype(np.float64).str


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
    """One adaptive path in C, or None when the kernel does not run it.

    config is the path's checked SchemeConfig.  The kernel takes a path of
    a built-in model whose noise it can draw on (_philox) and leaves that
    NoiseSource as simulate_path's draws leave it: the same clock and the
    same next draw.  Returns (times, values, increments, step count), the
    arrays as simulate_path stores them, or raises the PathExplosion it
    would raise, through the same _stop.
    """
    number = _model_number(model)
    rng = None if number is None else _philox(noise)
    if rng is None:
        return None
    clock = ctypes.c_double(noise.current_time)
    out = (ctypes.c_double * 2)()
    steps = ctypes.c_longlong()
    grid = (ctypes.c_void_p * 3)()
    lib = library()
    status = lib.tamsde_path(
        number, config.delta, config.h0, config.l0, model.x0, config.t_end,
        min(config.max_steps, _INT64_MAX), ctypes.byref(rng),
        ctypes.byref(clock), out, ctypes.byref(steps), grid)
    _hand_back(noise, clock)
    n = steps.value
    if status == _NO_MEMORY:
        raise MemoryError(f"no memory to store a path of {n} steps")
    if status:  # FINE_STOP: the path's one leg cannot go on
        raise _stop(None, out[1], out[0], n, config.max_steps)
    free = lib.tamsde_free
    times, values, increments = (
        np.asarray(_Doubles(free, pointer, size))
        for pointer, size in zip(grid, (n + 1, n + 1, n)))
    return times, values, increments, n


def run_block(model, config, seeds, pair=None):
    """The outcome of each seed of a block, in one C call, or None when the
    kernel does not run it.

    seeds is a range of step 1 of non-negative integers.  pair
    is (adaptive, delta_coarse) for coupled pairs, with adaptive picking
    two tamed-adaptive legs (h0 and l0 from config) over two fixed-step
    legs, and None for single paths; config is the checked SchemeConfig of
    every seed's pair or path, with the fine leg's delta.  Each seed runs
    as on a fresh NoiseSource(seed), so its outcome is _merge's or
    simulate_path's there: a pair's (fine state, coarse state, fine steps,
    coarse steps), a path's (terminal state, step count), or the
    PathExplosion that run raises, built by the same _stop.  A path of a
    block stores no trajectory.  The kernel takes a block of a built-in
    model.
    """
    number = _model_number(model)
    lib = library()
    if number is None or lib is None:
        return None
    n = len(seeds)
    legs = 1 if pair is None else 2
    out = (ctypes.c_double * ((legs + 1) * n))()
    steps = (ctypes.c_longlong * (legs * n))()
    status = (ctypes.c_int * n)()
    words, n_words = _words(seeds.start)
    # room for the one word a carry past the top word adds (next_seed)
    seed = ctypes.create_string_buffer(words, len(words) + 4)
    budget = min(config.max_steps, _INT64_MAX)
    if pair is None:
        lib.tamsde_paths(number, config.delta, config.h0, config.l0,
                         model.x0, config.t_end, budget, seed, n_words, n,
                         out, steps, status)
        rows = list(zip(out[::2], steps))
    else:
        adaptive, delta_coarse = pair
        lib.tamsde_pairs(number, int(adaptive), config.delta, delta_coarse,
                         config.h0, config.l0, model.x0, config.t_end,
                         budget, seed, n_words, n, out, steps, status)
        rows = list(zip(out[::3], out[1::3], steps[::2], steps[1::2]))
    for i, code in enumerate(status[:]):
        if code:  # FINE_STOP (1) or COARSE_STOP (2): that leg stopped
            leg = code - 1
            rows[i] = _stop(("fine", "coarse")[leg] if pair else None,
                            out[(legs + 1) * i + legs],
                            out[(legs + 1) * i + leg], steps[legs * i + leg],
                            config.max_steps)
    return rows
