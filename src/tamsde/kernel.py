"""Compiled coupled-pair kernel for the built-in models.

_pair.c runs one coupled pair of either scheme from start to finish,
operation for operation as driver._merge does, so its results are
byte-identical to the Python loop's.  The driver calls run_pair first and
falls back to _merge, which stays the reference, whenever run_pair returns
None: for a model other than the three built-ins (JSON term models and
library callables), for an argument that is not a plain float or a
64-bit integer, or when the kernel cannot be built here.

The kernel is compiled with the host's `cc` on the first coupled pair of a
process, never at import, and cached outside the source tree in the
first usable directory of $XDG_CACHE_HOME/tamsde, ~/.cache/tamsde and a
per-user directory under tempfile.gettempdir(), under a name keyed by the
sha256 of the source, the flags and the machine type.  A build goes to a
temporary name first and is renamed into place, so processes that build
at once do not see each other's half-written files.  A cached file that
another user owns or can write is never loaded.  Loading is tried once per
process; with no compiler, or when the build fails, every pair takes the
Python loop.
"""

import contextlib
import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

import numpy as np

from .model import get_model
from .scheme import _stop

__all__ = ["library", "run_pair"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pair.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120
_BLOCK = 1024  # normals per call, as NoiseSource draws them

# C model numbers are positions in this tuple (enum in _pair.c)
_MODELS = ("model1", "model2", "gbm")
# return codes of tamsde_pair_run other than DONE (0)
_FINE_STOP, _COARSE_STOP, _NEED_NORMALS = range(1, 4)
_INT64 = 2 ** 63


class _Leg(ctypes.Structure):
    _fields_ = [(name, ctypes.c_double) for name in
                ("delta", "sqd", "x", "last", "due", "m", "s", "q", "pw", "pc")]
    _fields_ += [("steps", ctypes.c_longlong)]


class _Pair(ctypes.Structure):
    _fields_ = [("fine", _Leg), ("coarse", _Leg),
                ("h0", ctypes.c_double), ("l0", ctypes.c_double),
                ("t", ctypes.c_double), ("t_end", ctypes.c_double),
                ("max_steps", ctypes.c_longlong),
                ("model", ctypes.c_int), ("adaptive", ctypes.c_int)]


def _coefficients(model):
    return (model.drift, model.diffusion, model.drift_prime,
            model.diffusion_prime)


_BUILTIN_COEFFICIENTS = tuple(_coefficients(get_model(name)) for name in _MODELS)


def _model_number(model):
    # identity, not equality: only the built-in functions themselves are
    # known to the kernel, and a user's callable need not be hashable
    coefficients = _coefficients(model)
    for number, builtin in enumerate(_BUILTIN_COEFFICIENTS):
        if all(a is b for a, b in zip(coefficients, builtin)):
            return number
    return None


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
    """The kernel directory/name, or None if absent, not private or not loadable."""
    path = os.path.join(directory, name)
    try:
        if not (_private(directory) and _private(path)):
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    try:
        lib.tamsde_pair_size.restype = ctypes.c_size_t
        lib.tamsde_pair_size.argtypes = []
        lib.tamsde_pair_init.restype = None
        lib.tamsde_pair_init.argtypes = (
            [ctypes.c_void_p, ctypes.c_int, ctypes.c_int]
            + [ctypes.c_double] * 6 + [ctypes.c_longlong])
        lib.tamsde_pair_run.restype = ctypes.c_int
        lib.tamsde_pair_run.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                        ctypes.c_int]
    except AttributeError:  # a library of that name without our symbols
        return None
    if lib.tamsde_pair_size() != ctypes.sizeof(_Pair):
        return None
    return lib


def _compile(source, target):
    """Compile the source bytes into the shared library target; True if built."""
    cc = shutil.which("cc")
    if cc is None:
        return False
    src = os.path.join(os.path.dirname(target), "_pair.c")
    with open(src, "wb") as fh:
        fh.write(source)
    try:
        subprocess.run([cc, *_FLAGS, "-o", target, src, "-lm"],
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
    """The loaded kernel, or None when it cannot be built here.

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
    key = hashlib.sha256(source + repr((_FLAGS, platform.machine())).encode())
    name = f"_pair-{key.hexdigest()[:16]}.so"
    try:
        dirs = list(_cache_dirs())
        for directory in dirs:
            lib = _open(directory, name)
            if lib is not None:
                return lib
        with tempfile.TemporaryDirectory(prefix="tamsde-build-") as tmp:
            if not _compile(source, os.path.join(tmp, name)):
                return None
            for directory in dirs:
                if _install(os.path.join(tmp, name), directory, name):
                    lib = _open(directory, name)
                    if lib is not None:
                        return lib
            # no usable cache: the loaded build outlives its deleted file
            return _open(tmp, name)
    except OSError:  # no usable temporary directory, or writing to it failed
        return None


def run_pair(model, clock, delta_fine, delta_coarse, t_end, normals,
             max_steps):
    """One coupled pair in C, or None when the kernel cannot run it exactly.

    clock is (h0, l0) for two tamed-adaptive legs and None for two
    fixed-step legs; normals is the pair's numpy Generator.  Returns the
    terminal (fine state, coarse state, fine steps, coarse steps), or
    raises the PathExplosion _merge would raise, through the same _stop.
    """
    number = _model_number(model)
    if number is None:
        return None
    h0, l0 = clock or (0.0, 0.0)  # a fixed-step pair never reads them
    values = (h0, l0, model.x0, t_end)
    # plain floats only: a float subclass may bring its own arithmetic and **
    if (any(type(v) is not float for v in values)
            or type(max_steps) is not int
            or not -_INT64 <= max_steps < _INT64):
        return None
    lib = library()
    if lib is None:
        return None
    pair = _Pair()
    lib.tamsde_pair_init(ctypes.byref(pair), number, int(clock is not None),
                         delta_fine, delta_coarse, *values, max_steps)
    buf = np.empty(_BLOCK)
    address = buf.ctypes.data
    run = lib.tamsde_pair_run
    status = _NEED_NORMALS
    while status == _NEED_NORMALS:
        normals.standard_normal(_BLOCK, out=buf)
        status = run(ctypes.byref(pair), address, _BLOCK)
    if status == _FINE_STOP:
        _stop("fine", pair.t, pair.fine.x, pair.fine.steps, max_steps)
    if status == _COARSE_STOP:
        _stop("coarse", pair.t, pair.coarse.x, pair.coarse.steps, max_steps)
    return pair.fine.x, pair.coarse.x, pair.fine.steps, pair.coarse.steps
