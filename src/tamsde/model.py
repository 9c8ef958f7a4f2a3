"""Scalar SDE model definitions and structural assumption checks.

A model is the data of a scalar Ito equation

    dX_t = mu(X_t) dt + sigma(X_t) dW_t,   X_0 = x0,

together with the first derivatives of both coefficients and the constants
describing how irregular and how dissipative the coefficients are.  Two
built-in models with polynomially growing drift and Holder-continuous
diffusion derivatives are provided, plus a geometric Brownian motion whose
terminal law is known in closed form and serves as an end-to-end oracle.

Custom models are accepted as JSON documents whose drift and diffusion are
sums of terms ``coeff * x**power * |x|**abs_power``; derivatives are built
analytically from that description, never by finite differences.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import InputError

__all__ = [
    "RegularityConstants",
    "SdeModel",
    "DissipativityReport",
    "OneSidedLipschitzReport",
    "evaluate_coefficients",
    "check_dissipativity",
    "check_one_sided_lipschitz",
    "exact_gbm_terminal",
    "get_model",
    "load_model_file",
    "builtin_model_names",
    "minimum_step_exponent",
]

_P0_SLACK = 1e-9  # float dust allowance in the p0 >= 4(l + alpha + 1) check


def _real(value, what):
    """value as a float; InputError unless it is a real number (not a bool)."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InputError(f"{what} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise InputError(f"{what} lies beyond the float range") from None
    return value


def _finite(value, what):
    """_real(value, what), which must also be finite."""
    value = _real(value, what)
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
    return value


def _integer(value, what, least=None):
    """value; InputError unless it is an int (not a bool) and, if least is
    given, at least least."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or least is not None and value < least):
        bound = {None: "an integer", 0: "a non-negative integer"}.get(
            least, f"an integer >= {least}")
        raise InputError(f"{what} must be {bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class RegularityConstants:
    """Constants quantifying coefficient regularity and dissipativity.

    alpha      Holder exponent of the diffusion derivative, in (0, 1].
    l          polynomial growth degree of the drift derivative, >= 0.
    gamma, eta dissipativity: x*mu(x) + ((p0-1)/2) * sigma(x)**2
               <= gamma*x**2 + eta for all x.
    lambda_os  one-sided Lipschitz constant: (x-y)*(mu(x)-mu(y))
               + |sigma(x)-sigma(y)|**2 / 2 <= lambda_os*(x-y)**2.
    p0         moment order supported by the dissipativity condition;
               must satisfy p0 >= 4*(l + alpha + 1).

    Each must be a finite real number (not a bool) and is stored as a float.
    """

    alpha: float
    l: float
    gamma: float
    eta: float
    lambda_os: float
    p0: float

    def __post_init__(self):
        for name in ("alpha", "l", "gamma", "eta", "lambda_os", "p0"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if not 0.0 < self.alpha <= 1.0:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.l < 0.0:
            raise InputError(f"l must be >= 0, got {self.l}")
        if self.eta < 0.0:
            raise InputError(f"eta must be >= 0, got {self.eta}")
        required = 4.0 * (self.l + self.alpha + 1.0)
        if self.p0 < required - _P0_SLACK:
            raise InputError(
                f"p0 must be >= 4*(l + alpha + 1) = {required}, got {self.p0}")


@dataclass(frozen=True)
class SdeModel:
    """A scalar SDE with differentiable coefficients.

    drift, diffusion, drift_prime and diffusion_prime are callables
    float -> float, total on the reals: any finite input yields a value
    (possibly +-inf for astronomically large arguments), never an exception.
    x0 must be a finite real number and is stored as a float.
    """

    name: str
    drift: object
    diffusion: object
    drift_prime: object
    diffusion_prime: object
    regularity: RegularityConstants
    x0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", _finite(self.x0, "model field 'x0'"))


@dataclass(frozen=True)
class DissipativityReport:
    holds: bool
    worst_x: float
    worst_margin: float


@dataclass(frozen=True)
class OneSidedLipschitzReport:
    holds: bool
    worst_pair: tuple
    worst_margin: float


def evaluate_coefficients(model, x):
    """Return (mu, sigma, mu', sigma') at x.

    Raises InputError when x is not a finite real number.
    """
    x = _finite(x, "coefficient evaluation point x")
    return (model.drift(x), model.diffusion(x),
            model.drift_prime(x), model.diffusion_prime(x))


def check_dissipativity(model, xs):
    """Evaluate the dissipativity margin of ``model`` on the points ``xs``.

    For each x the margin is gamma*x**2 + eta minus
    x*mu(x) + ((p0-1)/2)*sigma(x)**2; the condition holds at x when the
    margin is >= 0.  Returns the worst (smallest-margin) point; a NaN
    margin fails and is the worst of all.

    Raises InputError when xs is not a collection, is empty, or a point
    is not a finite real number.
    """
    try:
        xs = [_finite(x, "dissipativity check point") for x in xs]
    except TypeError:  # xs is not a collection
        raise InputError("dissipativity check points must be a list") from None
    if not xs:
        raise InputError("dissipativity check needs at least one point")
    reg = model.regularity
    half = (reg.p0 - 1.0) / 2.0
    worst_x = xs[0]
    worst_margin = math.inf
    for x in xs:
        s = model.diffusion(x)
        lhs = x * model.drift(x) + half * s * s
        margin = reg.gamma * x * x + reg.eta - lhs
        if margin < worst_margin or margin != margin:
            worst_margin = margin
            worst_x = x
            if margin != margin:
                break
    return DissipativityReport(holds=worst_margin >= 0.0,
                               worst_x=worst_x, worst_margin=worst_margin)


def check_one_sided_lipschitz(model, pairs):
    """Evaluate the one-sided Lipschitz margin of ``model`` on point pairs.

    For each pair (x, y) the margin is lambda_os*(x-y)**2 minus
    (x-y)*(mu(x)-mu(y)) + |sigma(x)-sigma(y)|**2 / 2.  Returns the worst
    (smallest-margin) pair; a NaN margin fails and is the worst of all.

    Raises InputError when pairs is empty or a pair is not two finite real
    numbers.
    """
    what = "one-sided Lipschitz check point"
    try:
        pairs = [(_finite(x, what), _finite(y, what)) for x, y in pairs]
    except (TypeError, ValueError):  # an item that is not two values
        raise InputError("one-sided Lipschitz check pairs must each be two "
                         "numbers") from None
    if not pairs:
        raise InputError("one-sided Lipschitz check needs at least one pair")
    lam = model.regularity.lambda_os
    worst_pair = pairs[0]
    worst_margin = math.inf
    for x, y in pairs:
        d = x - y
        ds = model.diffusion(x) - model.diffusion(y)
        lhs = d * (model.drift(x) - model.drift(y)) + 0.5 * ds * ds
        margin = lam * d * d - lhs
        if margin < worst_margin or margin != margin:
            worst_margin = margin
            worst_pair = (x, y)
            if margin != margin:
                break
    return OneSidedLipschitzReport(holds=worst_margin >= 0.0,
                                   worst_pair=worst_pair,
                                   worst_margin=worst_margin)


def exact_gbm_terminal(a, b, x0, t_end, w_t):
    """Terminal value of dX = a*X dt + b*X dW at t_end, given W_{t_end}.

    Uses the closed form x0 * exp((a - b**2/2) * t_end + b * w_t).  An
    exponential beyond the float range reads inf, so the result is +-inf,
    or 0.0 for x0 = 0.  Raises InputError for negative t_end or an
    argument that is not a finite real number.
    """
    a, b, x0, t_end, w_t = map(_finite, (a, b, x0, t_end, w_t),
                               ("a", "b", "x0", "t_end", "w_t"))
    if t_end < 0.0:
        raise InputError(f"t_end must be >= 0, got {t_end}")
    try:
        growth = math.exp((a - 0.5 * b * b) * t_end + b * w_t)
    except OverflowError:
        growth = math.inf
    return _times(x0, growth)


def minimum_step_exponent(regularity):
    """Smallest admissible state-penalty exponent for the adaptive step.

    The convergence theory needs l0 >= max(2, 4*l / (3*(1+alpha))).
    """
    return max(2.0, 4.0 * regularity.l / (3.0 * (1.0 + regularity.alpha)))


# --- term-based coefficient functions -------------------------------------
#
# f(x) = sum_i coeff_i * x**power_i * |x|**abs_power_i with integer power >= 0
# and real abs_power >= 0.  The derivative of one term is
#     coeff * (power * x**(power-1) * |x|**abs_power
#              + abs_power * sign(x) * x**power * |x|**(abs_power-1)),
# with sign(0) = 0, so at x = 0 the derivative is coeff when
# (power, abs_power) == (1, 0) and 0 otherwise.


def _sign(x):
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


def _rpow(u, p):
    # total real power for u >= 0: CPython's ** raises OverflowError for
    # finite arguments with huge results, which would break totality
    try:
        return u ** p
    except OverflowError:
        return math.inf


def _times(a, b):
    # a * b with scheme._tamed's zero rule where it matters: an exact zero
    # factor against an infinite one gives 0.0, not nan; every other
    # product keeps its bits, signed zeros included
    v = a * b
    return 0.0 if v != v and (a == 0.0 or b == 0.0) else v


@dataclass(frozen=True)
class PowerTerm:
    """One monomial term coeff * x**power * |x|**abs_power."""

    coeff: float
    power: int = 0
    abs_power: float = 0.0

    def __post_init__(self):
        p = _integer(self.power, "power", 0)
        coeff = _finite(self.coeff, "coeff")
        q = _finite(self.abs_power, "abs_power")
        if q < 0.0:
            raise InputError(f"abs_power must be >= 0, got {q}")
        # value and derivative take |x|**(p+q) and |x|**(p+q-1)
        try:
            total = p + q
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise InputError("power + abs_power must be a finite float")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "abs_power", q)

    def value(self, x):
        # coeff * x**p * |x|**q == coeff * sign(x)**p * |x|**(p+q)
        p, q = self.power, self.abs_power
        v = _times(self.coeff, _rpow(abs(x), p + q))
        return -v if (p % 2 and x < 0.0) else v

    def derivative(self, x):
        # d/dx [x**p |x|**q] = (p+q) * sign(x)**(p-1) * |x|**(p+q-1),
        # both product-rule pieces share the exponent p+q-1
        p, q = self.power, self.abs_power
        if p + q == 0.0:
            # a constant; |x|**-1 would overflow near 0 and give 0 * inf
            return 0.0
        if x == 0.0:
            return self.coeff if (p == 1 and q == 0.0) else 0.0
        d = _times(self.coeff * (p + q), _rpow(abs(x), p + q - 1.0))
        return -d if (p % 2 == 0 and x < 0.0) else d


def _total(values):
    # exact sum, made total: fsum raises where float addition would give
    # nan (+inf and -inf terms) or overflow (finite partial sums beyond
    # the float range)
    try:
        return math.fsum(values)
    except ValueError:
        return math.nan
    except OverflowError:
        return sum(values)


@dataclass(frozen=True)
class PowerSum:
    """Callable sum of PowerTerm values."""

    terms: tuple

    def __call__(self, x):
        return _total([t.value(x) for t in self.terms])


@dataclass(frozen=True)
class PowerSumDerivative:
    """Callable sum of PowerTerm derivatives."""

    terms: tuple

    def __call__(self, x):
        return _total([t.derivative(x) for t in self.terms])


# --- built-in models -------------------------------------------------------
#
# _pair.c repeats these coefficients in the same operation order, so the
# compiled pair kernel computes the same bits; change both together.


def _m1_drift(x):
    return 0.1 * (x - x * x * x)


def _m1_drift_prime(x):
    return 0.1 * (1.0 - 3.0 * x * x)


def _m1_diffusion(x):
    return 0.1 * x


def _m1_diffusion_prime(x):
    return 0.1


def _m2_drift(x):
    return -0.1 * (1.0 + 3.0 * x + x * _rpow(abs(x), 0.5))


def _m2_drift_prime(x):
    return -0.3 - 0.15 * _rpow(abs(x), 0.5)


def _m2_diffusion(x):
    return 0.3 * (1.0 + _rpow(abs(x), 1.2))


def _m2_diffusion_prime(x):
    return 0.36 * _sign(x) * _rpow(abs(x), 0.2)


_GBM_A = 0.05
_GBM_B = 0.2


def _gbm_drift(x):
    return _GBM_A * x


def _gbm_drift_prime(x):
    return _GBM_A


def _gbm_diffusion(x):
    return _GBM_B * x


def _gbm_diffusion_prime(x):
    return _GBM_B


def _make_model1():
    # cubic double-well drift with linear multiplicative noise; the stored
    # lambda_os is the sharp constant sup over pairs of the A2 quotient,
    # which equals mu'(0) + sigma'(0)**2 / 2 = 0.105
    return SdeModel(
        name="model1",
        drift=_m1_drift, diffusion=_m1_diffusion,
        drift_prime=_m1_drift_prime, diffusion_prime=_m1_diffusion_prime,
        regularity=RegularityConstants(alpha=1.0, l=1.0, gamma=0.65, eta=0.0,
                                       lambda_os=0.105, p0=12.0),
        x0=0.1,
    )


def _make_model2():
    # drift with a |x|^{1/2} kink in its derivative and diffusion whose
    # derivative is only 0.2-Holder at the origin
    return SdeModel(
        name="model2",
        drift=_m2_drift, diffusion=_m2_diffusion,
        drift_prime=_m2_drift_prime, diffusion_prime=_m2_diffusion_prime,
        regularity=RegularityConstants(alpha=0.2, l=0.3, gamma=-0.2, eta=6.0e6,
                                       lambda_os=-0.2, p0=6.0),
        x0=0.1,
    )


def _make_gbm():
    # closed-form reference model: alpha=1, l=0.  The sharp constants are
    # gamma = a + (p0-1)*b**2/2 = 0.19 and lambda = a + b**2/2 = 0.07;
    # storing them exactly would put the margins at 0*x**2 in the reals,
    # where rounding can flip the sign, so both get a strict cushion.
    return SdeModel(
        name="gbm",
        drift=_gbm_drift, diffusion=_gbm_diffusion,
        drift_prime=_gbm_drift_prime, diffusion_prime=_gbm_diffusion_prime,
        regularity=RegularityConstants(alpha=1.0, l=0.0, gamma=0.2, eta=0.0,
                                       lambda_os=0.08, p0=8.0),
        x0=1.0,
    )


_BUILTINS = {"model1": _make_model1, "model2": _make_model2, "gbm": _make_gbm}


def builtin_model_names():
    return sorted(_BUILTINS)


def _parse_terms(raw, what):
    if not isinstance(raw, list) or not raw:
        raise InputError(f"model field '{what}' must be a non-empty list of terms")
    terms = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "coeff" not in item:
            raise InputError(f"term {i} of '{what}' must be an object with a 'coeff' field")
        extra = set(item) - {"coeff", "power", "abs_power"}
        if extra:
            raise InputError(f"term {i} of '{what}' has unknown fields {sorted(extra)}")
        try:
            terms.append(PowerTerm(coeff=item["coeff"],
                                   power=item.get("power", 0),
                                   abs_power=item.get("abs_power", 0.0)))
        except InputError as exc:
            raise InputError(f"model field '{what}', term {i}: {exc}") from None
    return tuple(terms)


def load_model_file(path):
    """Build an SdeModel from a JSON description file.

    Expected shape::

        {"name": "...", "x0": 0.1,
         "drift": [{"coeff": 0.1, "power": 1}, ...],
         "diffusion": [{"coeff": 0.1, "power": 1}, ...],
         "regularity": {"alpha": ..., "l": ..., "gamma": ..., "eta": ...,
                        "lambda_os": ..., "p0": ...}}

    Each term means coeff * x**power * |x|**abs_power; derivatives are
    derived analytically from the terms.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past str's digit limit
        raise InputError(f"model file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"model file {path!r} must contain a JSON object")
    missing = {"name", "x0", "drift", "diffusion", "regularity"} - set(doc)
    if missing:
        raise InputError(f"model file {path!r} is missing fields {sorted(missing)}")
    reg_raw = doc["regularity"]
    if not isinstance(reg_raw, dict):
        raise InputError("'regularity' must be an object")
    reg_missing = {"alpha", "l", "gamma", "eta", "lambda_os", "p0"} - set(reg_raw)
    if reg_missing:
        raise InputError(f"'regularity' is missing fields {sorted(reg_missing)}")
    reg = RegularityConstants(**{name: _finite(reg_raw[name], f"model field 'regularity.{name}'")
                                 for name in ("alpha", "l", "gamma", "eta", "lambda_os", "p0")})
    drift_terms = _parse_terms(doc["drift"], "drift")
    diff_terms = _parse_terms(doc["diffusion"], "diffusion")
    return SdeModel(
        name=str(doc["name"]),
        drift=PowerSum(drift_terms),
        diffusion=PowerSum(diff_terms),
        drift_prime=PowerSumDerivative(drift_terms),
        diffusion_prime=PowerSumDerivative(diff_terms),
        regularity=reg,
        x0=doc["x0"],
    )


def get_model(name_or_path):
    """Resolve a built-in model name or a path to a model description file."""
    # a name is a str; an unhashable argument cannot be looked up at all
    if isinstance(name_or_path, str) and name_or_path in _BUILTINS:
        return _BUILTINS[name_or_path]()
    if str(name_or_path).endswith(".json"):
        return load_model_file(name_or_path)
    raise InputError(
        f"unknown model {name_or_path!r}: expected one of {builtin_model_names()} "
        "or a path to a .json model description")
