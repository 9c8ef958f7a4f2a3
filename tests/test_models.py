"""Model definitions, assumption checkers, and the model file format."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tamsde import (InputError, PowerSum, PowerSumDerivative, PowerTerm,
                    RegularityConstants, builtin_model_names,
                    check_dissipativity, check_one_sided_lipschitz,
                    evaluate_coefficients, exact_gbm_terminal, get_model,
                    load_model_file, minimum_step_exponent)

M1 = get_model("model1")
M2 = get_model("model2")
GBM = get_model("gbm")

finite_x = st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


class TestBuiltinCoefficients:
    def test_builtin_names(self):
        assert builtin_model_names() == ["gbm", "model1", "model2"]

    def test_model1_at_one(self):
        # mu = 0.1(x - x^3) vanishes at 1; mu' = 0.1(1 - 3x^2)
        assert evaluate_coefficients(M1, 1.0) == (0.0, 0.1, -0.2, 0.1)

    def test_model1_at_zero(self):
        assert evaluate_coefficients(M1, 0.0) == (0.0, 0.0, 0.1, 0.1)

    def test_model1_at_two(self):
        mu, sigma, mup, sigp = evaluate_coefficients(M1, 2.0)
        assert mu == pytest.approx(-0.6, abs=1e-15)
        assert sigma == pytest.approx(0.2, abs=1e-15)
        assert mup == pytest.approx(-1.1, abs=1e-15)
        assert sigp == 0.1

    def test_model2_at_zero(self):
        # sigma' = 0.36 sign(x)|x|^0.2 vanishes at 0 with sign(0) = 0
        assert evaluate_coefficients(M2, 0.0) == (-0.1, 0.3, -0.3, 0.0)

    def test_model2_at_four(self):
        mu, sigma, mup, sigp = evaluate_coefficients(M2, 4.0)
        assert mu == pytest.approx(-0.1 * (1 + 12 + 4 * 2.0), rel=1e-15)
        assert sigma == pytest.approx(0.3 * (1 + 4.0 ** 1.2), rel=1e-15)
        assert mup == pytest.approx(-0.3 - 0.15 * 2.0, rel=1e-15)
        assert sigp == pytest.approx(0.36 * 4.0 ** 0.2, rel=1e-15)

    def test_model2_odd_symmetry_of_diffusion_prime(self):
        assert M2.diffusion_prime(-8.0) == -M2.diffusion_prime(8.0)

    def test_gbm_linearity(self):
        assert evaluate_coefficients(GBM, 3.0) == (0.05 * 3.0, 0.2 * 3.0, 0.05, 0.2)

    def test_x0_values(self):
        assert M1.x0 == 0.1 and M2.x0 == 0.1 and GBM.x0 == 1.0

    @pytest.mark.parametrize("x0", [
        "0.1", None, True, math.nan, math.inf,
        pytest.param(10 ** 400, id="10**400")])
    def test_malformed_x0_rejected(self, x0):
        with pytest.raises(InputError, match="x0"):
            dataclasses.replace(M1, x0=x0)

    def test_x0_stored_as_float(self):
        for x0 in (1, np.float64(0.25), np.int64(3)):
            got = dataclasses.replace(M1, x0=x0).x0
            assert type(got) is float and got == x0

    def test_nonfinite_x_rejected(self):
        with pytest.raises(InputError):
            evaluate_coefficients(M1, math.inf)
        with pytest.raises(InputError):
            evaluate_coefficients(M2, math.nan)

    @given(x=finite_x)
    @settings(max_examples=300, deadline=None)
    def test_totality_and_finiteness_in_range(self, x):
        for model in (M1, M2, GBM):
            for v in evaluate_coefficients(model, x):
                assert not math.isnan(v)

    def test_totality_at_extreme_magnitudes(self):
        # inf is acceptable for astronomically large x, exceptions are not
        for model in (M1, M2, GBM):
            for x in (1e120, -1e120, 1e308, -1e308):
                for v in evaluate_coefficients(model, x):
                    assert not math.isnan(v)


@pytest.mark.parametrize("model,lo", [(M1, 1e-12), (M2, 1e-3), (GBM, 1e-12)])
def test_derivatives_match_finite_differences(model, lo):
    # central difference at step 1e-6, staying away from the kink of
    # model2's sigma' at the origin
    import random
    rng = random.Random(7)
    h = 1e-6
    for _ in range(200):
        x = rng.uniform(lo, 10.0) * (1 if rng.random() < 0.5 else -1)
        fd_mu = (model.drift(x + h) - model.drift(x - h)) / (2 * h)
        fd_sig = (model.diffusion(x + h) - model.diffusion(x - h)) / (2 * h)
        scale_mu = max(1.0, abs(model.drift_prime(x)))
        scale_sig = max(1.0, abs(model.diffusion_prime(x)))
        assert abs(fd_mu - model.drift_prime(x)) <= 1e-5 * scale_mu
        assert abs(fd_sig - model.diffusion_prime(x)) <= 1e-5 * scale_sig


class TestRegularityConstants:
    def test_builtin_tables(self):
        r1, r2 = M1.regularity, M2.regularity
        assert (r1.p0, r1.gamma, r1.eta, r1.l, r1.alpha) == (12.0, 0.65, 0.0, 1.0, 1.0)
        assert (r2.p0, r2.gamma, r2.eta, r2.lambda_os, r2.l, r2.alpha) == (
            6.0, -0.2, 6.0e6, -0.2, 0.3, 0.2)

    def test_p0_constraint_met_with_equality(self):
        # 12 >= 4(1+1+1) and 6 >= 4(0.3+0.2+1)
        assert M1.regularity.p0 == 4 * (M1.regularity.l + M1.regularity.alpha + 1)
        assert M2.regularity.p0 == 4 * (M2.regularity.l + M2.regularity.alpha + 1)

    def test_p0_too_small_rejected(self):
        with pytest.raises(InputError, match="p0"):
            RegularityConstants(alpha=1.0, l=1.0, gamma=0.0, eta=0.0,
                                lambda_os=0.0, p0=11.0)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, "0.5", None, math.nan])
    def test_alpha_range_rejected(self, bad):
        with pytest.raises(InputError, match="alpha"):
            RegularityConstants(alpha=bad, l=0.0, gamma=0.0, eta=0.0,
                                lambda_os=0.0, p0=8.0)

    @pytest.mark.parametrize("field", ["l", "gamma", "eta", "lambda_os", "p0"])
    @pytest.mark.parametrize("value", ["1", None, True, math.inf])
    def test_non_real_fields_rejected(self, field, value):
        args = dict(alpha=1.0, l=0.0, gamma=0.0, eta=0.0, lambda_os=0.0,
                    p0=8.0)
        args[field] = value
        with pytest.raises(InputError, match=field):
            RegularityConstants(**args)

    def test_negative_l_and_eta_rejected(self):
        with pytest.raises(InputError, match="l "):
            RegularityConstants(alpha=1.0, l=-1.0, gamma=0.0, eta=0.0,
                                lambda_os=0.0, p0=8.0)
        with pytest.raises(InputError, match="eta"):
            RegularityConstants(alpha=1.0, l=0.0, gamma=0.0, eta=-1.0,
                                lambda_os=0.0, p0=8.0)

    def test_minimum_step_exponent(self):
        assert minimum_step_exponent(M1.regularity) == 2.0
        assert minimum_step_exponent(M2.regularity) == 2.0
        assert minimum_step_exponent(GBM.regularity) == 2.0
        steep = RegularityConstants(alpha=1.0, l=6.0, gamma=0.0, eta=0.0,
                                    lambda_os=0.0, p0=32.0)
        assert minimum_step_exponent(steep) == 4.0


class TestDissipativity:
    def test_model1_at_two(self):
        # x*mu = 2*(-0.6) = -1.2; 5.5*sigma^2 = 5.5*0.04 = 0.22;
        # margin = 0.65*4 - (-1.2 + 0.22) = 3.58
        rep = check_dissipativity(M1, [2.0])
        assert rep.holds and rep.worst_x == 2.0
        assert rep.worst_margin == pytest.approx(3.58, abs=1e-12)

    def test_model1_at_origin_margin_exactly_zero(self):
        rep = check_dissipativity(M1, [0.0])
        assert rep.holds and rep.worst_margin == 0.0

    def test_model1_grid(self):
        xs = [-50 + i * 0.01 for i in range(10001)]
        assert check_dissipativity(M1, xs).holds

    def test_model2_grid(self):
        xs = [-50 + i * 0.01 for i in range(10001)]
        rep = check_dissipativity(M2, xs)
        # eta = 6e6 dominates everything on this range
        assert rep.holds and rep.worst_margin > 1e6

    def test_gbm_strict_margin(self):
        rep = check_dissipativity(GBM, [-3.0, -1.0, 1.0, 3.0])
        assert rep.holds and rep.worst_margin > 0.0

    def test_worst_point_is_reported(self):
        rep = check_dissipativity(M1, [0.0, 2.0])
        assert rep.worst_x == 0.0 and rep.worst_margin == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            check_dissipativity(M1, [])

    def test_violated_condition_reported_not_raised(self):
        bad = RegularityConstants(alpha=1.0, l=1.0, gamma=-1.0, eta=0.0,
                                  lambda_os=0.105, p0=12.0)
        from tamsde import SdeModel
        model = SdeModel(name="bad", drift=M1.drift, diffusion=M1.diffusion,
                         drift_prime=M1.drift_prime,
                         diffusion_prime=M1.diffusion_prime,
                         regularity=bad, x0=0.1)
        rep = check_dissipativity(model, [1.0])
        assert not rep.holds and rep.worst_margin < 0.0

    def test_nan_margin_fails(self):
        # a NaN margin is not skipped: it fails and is reported as worst
        model = dataclasses.replace(
            M1, drift=lambda x: math.nan if x == 2.0 else M1.drift(x))
        rep = check_dissipativity(model, [0.0, 2.0, 3.0])
        assert not rep.holds and rep.worst_x == 2.0
        assert math.isnan(rep.worst_margin)


class TestOneSidedLipschitz:
    def test_identical_pair_margin_exactly_zero(self):
        rep = check_one_sided_lipschitz(M1, [(1.0, 1.0)])
        assert rep.holds and rep.worst_margin == 0.0

    def test_model1_pair_one_zero(self):
        # lhs = 1*(mu(1)-mu(0)) + (0.1-0)^2/2 = 0.005;
        # margin = 0.105 - 0.005 = 0.1
        rep = check_one_sided_lipschitz(M1, [(1.0, 0.0)])
        assert rep.holds
        assert rep.worst_margin == pytest.approx(0.1, abs=1e-12)

    def test_model1_near_worst_pair(self):
        # the sup of the A2 quotient is mu'(0) + sigma'(0)^2/2 = 0.105,
        # approached by pairs straddling the origin; margins stay >= 0
        pairs = [(d, -d) for d in (0.1, 0.01, 0.001)]
        rep = check_one_sided_lipschitz(M1, pairs)
        assert rep.holds
        # margin for (d, -d) is 0.1*(x^2+xy+y^2)*(x-y)^2 = 0.4*d^4
        assert rep.worst_margin == pytest.approx(0.4 * 0.001 ** 4, rel=1e-6)

    def test_model2_random_pairs(self):
        import random
        rng = random.Random(3)
        pairs = [(rng.uniform(-20, 20), rng.uniform(-20, 20))
                 for _ in range(10000)]
        assert check_one_sided_lipschitz(M2, pairs).holds

    def test_model1_random_pairs(self):
        import random
        rng = random.Random(4)
        pairs = [(rng.uniform(-10, 10), rng.uniform(-10, 10))
                 for _ in range(10000)]
        assert check_one_sided_lipschitz(M1, pairs).holds

    def test_gbm_pairs(self):
        assert check_one_sided_lipschitz(GBM, [(1.0, -1.0), (5.0, 2.0)]).holds

    def test_empty_pairs_rejected(self):
        with pytest.raises(InputError):
            check_one_sided_lipschitz(M1, [])

    def test_nan_margin_fails(self):
        model = dataclasses.replace(
            M1, drift=lambda x: math.nan if x == 2.0 else M1.drift(x))
        rep = check_one_sided_lipschitz(model, [(1.0, 0.0), (2.0, 1.0),
                                                (3.0, 1.0)])
        assert not rep.holds and rep.worst_pair == (2.0, 1.0)
        assert math.isnan(rep.worst_margin)

    def test_zero_coefficient_term_changes_no_report(self):
        # |x|**400 overflows beyond |x| ~ 6.3, where this drift's margins
        # are worst; 0 * x**400 must read 0, not NaN, so the sweep reports
        # what it reports without that term
        terms = (PowerTerm(coeff=0.1, power=1), PowerTerm(coeff=0.1, power=3))
        xs = [i / 4.0 for i in range(-40, 41)]
        pairs = list(zip(xs, reversed(xs))) + list(zip(xs, xs[1:]))
        reports = []
        for drift in (terms, terms + (PowerTerm(coeff=0.0, power=400),)):
            model = dataclasses.replace(M1, drift=PowerSum(drift),
                                        drift_prime=PowerSumDerivative(drift))
            reports.append((check_dissipativity(model, xs),
                            check_one_sided_lipschitz(model, pairs)))
        assert reports[0] == reports[1]


@pytest.mark.parametrize("check, points", [
    (check_dissipativity, ["a"]),
    (check_dissipativity, [True]),
    (check_dissipativity, [1.0, math.inf]),
    (check_dissipativity, [None]),
    (check_dissipativity, 1.0),
    (check_dissipativity, None),
    (check_one_sided_lipschitz, [(1.0,)]),
    (check_one_sided_lipschitz, [(1.0, 2.0, 3.0)]),
    (check_one_sided_lipschitz, [1.0]),
    (check_one_sided_lipschitz, [(1.0, "2")]),
    (check_one_sided_lipschitz, [(0.0, 1.0), (math.nan, 1.0)]),
    (check_one_sided_lipschitz, [(False, 1.0)])],
    ids=["string", "bool", "infinite", "none", "bare-point", "no-points",
         "one-number", "three-numbers", "bare-number", "string-in-pair",
         "nan-in-pair", "bool-in-pair"])
def test_malformed_check_points_are_input_errors(check, points):
    with pytest.raises(InputError):
        check(M1, points)


class TestExactGbmTerminal:
    def test_time_zero_identity(self):
        assert exact_gbm_terminal(0.05, 0.2, 1.0, 0.0, 0.0) == 1.0

    def test_driftless_noiseless(self):
        assert exact_gbm_terminal(0.0, 0.0, 2.0, 5.0, 3.0) == 2.0

    def test_unit_horizon(self):
        got = exact_gbm_terminal(0.05, 0.2, 1.0, 1.0, 0.0)
        assert got == pytest.approx(math.exp(0.03), rel=1e-15)

    def test_with_noise(self):
        got = exact_gbm_terminal(0.05, 0.2, 2.0, 4.0, -1.5)
        assert got == pytest.approx(2.0 * math.exp(0.03 * 4.0 + 0.2 * -1.5),
                                    rel=1e-15)

    def test_negative_horizon_rejected(self):
        with pytest.raises(InputError):
            exact_gbm_terminal(0.05, 0.2, 1.0, -1.0, 0.0)

    @pytest.mark.parametrize("x0, want", [(1.0, math.inf), (-2.0, -math.inf),
                                          (0.0, 0.0)])
    def test_overflowing_exponential_reads_inf(self, x0, want):
        # exp(2e5) lies beyond the float range
        got = exact_gbm_terminal(0.05, 0.2, x0, 1.0, 1e6)
        assert got == want and math.copysign(1.0, got) == math.copysign(
            1.0, want)


class TestPowerTerms:
    def test_plain_polynomial(self):
        t = PowerTerm(coeff=2.0, power=3)
        assert t.value(2.0) == 16.0
        assert t.value(-2.0) == -16.0
        assert t.derivative(2.0) == 24.0

    def test_mixed_absolute_power(self):
        # x|x|^0.5: value is odd, derivative 1.5|x|^0.5 is even
        t = PowerTerm(coeff=1.0, power=1, abs_power=0.5)
        assert t.value(4.0) == 8.0
        assert t.value(-4.0) == -8.0
        assert t.derivative(4.0) == 3.0
        assert t.derivative(-4.0) == 3.0

    def test_pure_absolute_power(self):
        # |x|^1.2: even value, odd derivative, zero at the origin
        t = PowerTerm(coeff=0.3, power=0, abs_power=1.2)
        assert t.value(-2.0) == t.value(2.0)
        assert t.derivative(-2.0) == -t.derivative(2.0)
        assert t.derivative(0.0) == 0.0

    def test_derivative_at_origin(self):
        assert PowerTerm(coeff=5.0, power=1).derivative(0.0) == 5.0
        assert PowerTerm(coeff=5.0, power=2).derivative(0.0) == 0.0
        assert PowerTerm(coeff=5.0, power=0, abs_power=0.5).derivative(0.0) == 0.0
        assert PowerTerm(coeff=5.0).value(0.0) == 5.0
        assert PowerTerm(coeff=5.0).derivative(0.0) == 0.0

    def test_huge_arguments_give_inf_not_exceptions(self):
        t = PowerTerm(coeff=1.0, power=3)
        assert t.value(1e200) == math.inf
        assert t.value(-1e200) == -math.inf
        assert t.derivative(1e200) == math.inf

    def test_power_sums_stay_total_when_terms_overflow(self):
        # +inf and -inf terms sum to NaN rather than raising, so a
        # diverging path is caught by the non-finite state checks
        terms = (PowerTerm(coeff=1.0, power=5), PowerTerm(coeff=-2.0, power=6))
        assert math.isnan(PowerSum(terms)(1e100))
        assert math.isnan(PowerSumDerivative(terms)(1e100))
        # finite terms whose sum leaves the float range give inf
        big = (PowerTerm(coeff=1e308, power=1), PowerTerm(coeff=1e308, power=1))
        assert PowerSum(big)(1.0) == math.inf
        assert PowerSum(big)(-1.0) == -math.inf
        assert PowerSum(())(3.0) == 0.0

    @pytest.mark.parametrize("term, method, x", [
        (PowerTerm(coeff=1e10, power=10 ** 300), "derivative", 0.5),
        (PowerTerm(coeff=0.0, power=400), "value", 10.0),
        (PowerTerm(coeff=0.0, power=400), "derivative", -10.0),
        (PowerTerm(coeff=0.0, abs_power=0.001), "derivative", 1e-310)],
        ids=["overflowing-coeff", "zero-coeff-value", "zero-coeff-derivative",
             "zero-coeff-near-origin"])
    def test_zero_times_infinite_factor_is_zero(self, term, method, x):
        # one factor is exactly 0 and the other inf: scheme._tamed's zero
        # rule gives 0.0, where the plain product is nan
        assert getattr(term, method)(x) == 0.0

    def test_signed_zeros_kept(self):
        assert math.copysign(1.0, PowerTerm(coeff=-0.1, power=1).value(0.0)) == -1.0
        assert math.copysign(1.0, PowerTerm(coeff=-0.0).value(2.0)) == -1.0

    def test_validation(self):
        with pytest.raises(InputError):
            PowerTerm(coeff=1.0, power=-1)
        with pytest.raises(InputError):
            PowerTerm(coeff=1.0, abs_power=-0.5)

    @pytest.mark.parametrize("x", [5e-324, 1e-310, -5e-324, -1e-310])
    def test_constant_term_derivative_near_zero(self, x):
        # |x|**-1 overflows there; the derivative of a constant is 0, not
        # 0 * inf = nan
        terms = (PowerTerm(coeff=-0.1), PowerTerm(coeff=0.3, power=1),
                 PowerTerm(coeff=0.2, abs_power=0.5))
        assert PowerTerm(coeff=-0.1).derivative(x) == 0.0
        assert math.isfinite(PowerSumDerivative(terms)(x))
        assert math.isfinite(PowerSumDerivative(terms[:1])(x))

    @pytest.mark.parametrize("kwargs", [
        dict(coeff=math.inf), dict(coeff=math.nan), dict(coeff="1"),
        dict(coeff=None), dict(coeff=1.0, abs_power=math.inf),
        dict(coeff=1.0, power=True), dict(coeff=1.0, power=10 ** 400),
        dict(coeff=1.0, power=10 ** 308, abs_power=1e308)],
        ids=["inf-coeff", "nan-coeff", "string-coeff", "none-coeff",
             "inf-abs_power", "bool-power", "huge-power",
             "overflowing-exponent"])
    def test_out_of_range_term_rejected(self, kwargs):
        with pytest.raises(InputError):
            PowerTerm(**kwargs)

    def test_power_sum_matches_model2_drift(self):
        terms = (PowerTerm(coeff=-0.1), PowerTerm(coeff=-0.3, power=1),
                 PowerTerm(coeff=-0.1, power=1, abs_power=0.5))
        f = PowerSum(terms)
        fp = PowerSumDerivative(terms)
        for x in (-3.0, -0.5, 0.0, 0.7, 9.0):
            assert f(x) == pytest.approx(M2.drift(x), rel=1e-14, abs=1e-300)
            assert fp(x) == pytest.approx(M2.drift_prime(x), rel=1e-14)


class TestModelFiles:
    def _doc(self):
        return {
            "name": "custom",
            "x0": 0.5,
            "drift": [{"coeff": -1.0, "power": 3}],
            "diffusion": [{"coeff": 0.5, "power": 1}],
            "regularity": {"alpha": 1.0, "l": 2.0, "gamma": 1.0, "eta": 1.0,
                           "lambda_os": 1.0, "p0": 16.0},
        }

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(self._doc()))
        model = load_model_file(str(path))
        assert model.name == "custom" and model.x0 == 0.5
        assert model.drift(2.0) == -8.0
        assert model.drift_prime(2.0) == -12.0
        assert model.diffusion(2.0) == 1.0
        assert model.diffusion_prime(2.0) == 0.5
        assert model.regularity.p0 == 16.0

    def test_get_model_accepts_json_path(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(self._doc()))
        assert get_model(str(path)).name == "custom"

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(InputError, match="model1"):
            get_model("nope")

    @pytest.mark.parametrize("name", [5, [], {}], ids=["int", "list", "dict"])
    def test_name_of_another_type_is_unknown(self, name):
        # an unhashable name cannot be looked up, and is unknown all the same
        with pytest.raises(InputError, match="unknown model"):
            get_model(name)

    def test_missing_field_rejected(self, tmp_path):
        doc = self._doc()
        del doc["diffusion"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="diffusion"):
            load_model_file(str(path))

    def test_missing_regularity_field_rejected(self, tmp_path):
        doc = self._doc()
        del doc["regularity"]["eta"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="eta"):
            load_model_file(str(path))

    def test_unknown_term_field_rejected(self, tmp_path):
        doc = self._doc()
        doc["drift"][0]["slope"] = 1.0
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="slope"):
            load_model_file(str(path))

    def test_non_integer_power_rejected(self, tmp_path):
        doc = self._doc()
        doc["drift"][0]["power"] = 1.5
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="power"):
            load_model_file(str(path))

    @pytest.mark.parametrize("field, value", [
        ("alpha", "abc"), ("p0", None), ("x0", "abc"), ("x0", [0.5]),
        # a term field is "<drift|diffusion>.<key>" of the first term; json
        # writes inf as Infinity, which reads back as 1e400 would
        pytest.param("drift.power", 10 ** 400, id="drift.power-10**400"),
        pytest.param("drift.coeff", math.inf, id="drift.coeff-1e400"),
        pytest.param("diffusion.abs_power", math.inf,
                     id="diffusion.abs_power-1e400"),
        pytest.param("drift.coeff", "0.1", id="drift.coeff-string")])
    def test_non_numeric_field_rejected(self, tmp_path, field, value):
        doc = self._doc()
        where, _, key = field.rpartition(".")
        if where in ("drift", "diffusion"):
            doc[where][0][key] = value
        else:
            (doc if field == "x0" else doc["regularity"])[field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=key):
            load_model_file(str(path))

    @pytest.mark.parametrize("x0", [b"1" * 5000, b'"\xff"'],
                             ids=["int-past-the-digit-limit", "not-utf-8"])
    def test_undecodable_file_rejected(self, tmp_path, x0):
        # both raise a ValueError that is not a JSONDecodeError
        path = tmp_path / "m.json"
        path.write_bytes(json.dumps(self._doc()).encode().replace(
            b'"x0": 0.5', b'"x0": ' + x0))
        with pytest.raises(InputError, match="JSON"):
            load_model_file(str(path))

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_x0_rejected(self, tmp_path, x0):
        doc = self._doc()
        doc["x0"] = x0  # json writes NaN / Infinity, which json reads back
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="x0"):
            load_model_file(str(path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="JSON"):
            load_model_file(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_model_file(str(tmp_path / "absent.json"))


# --- fuzzing the model file reader -----------------------------------------

# a JSON number beyond the double range, which json reads as +-inf; written
# into the text in place of this marker string
_BEYOND = "__beyond_the_double_range__"
_DELETE = object()

_scalars = st.one_of(
    st.integers(min_value=-10 ** 400, max_value=10 ** 400), st.floats(),
    st.just(_BEYOND), st.text(max_size=3), st.none(), st.booleans())
_values = st.recursive(
    _scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=2),
        st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=4)
# plausible numbers too, so that many documents load and get evaluated
_numbers = st.one_of(st.integers(min_value=0, max_value=4),
                     st.floats(min_value=-10.0, max_value=10.0), _scalars)

# a valid document and the places where a mutation may replace or delete a
# value, () being the whole document; a model built from it must be total
_BASE = {
    "name": "fuzz", "x0": 0.5,
    "drift": [{"coeff": 0.5, "power": 1}, {"coeff": -1.0, "power": 3}],
    "diffusion": [{"coeff": 0.2}, {"coeff": 0.3, "power": 1, "abs_power": 0.5}],
    "regularity": {"alpha": 0.5, "l": 2.0, "gamma": 1.0, "eta": 1.0,
                   "lambda_os": 1.0, "p0": 14.0},
}
_PLACES = ([()] + [(k,) for k in _BASE]
           + [(f, i, key) for f in ("drift", "diffusion") for i in (0, 1)
              for key in ("coeff", "power", "abs_power", "slope")]
           + [("regularity", key) for key in _BASE["regularity"]])


def _mutated(mutations):
    doc = json.loads(json.dumps(_BASE))
    for place, value in mutations:
        if not place:  # the document itself
            doc = None if value is _DELETE else value
            continue
        *parents, last = place
        node = doc
        for key in parents:
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                node = None
        if isinstance(node, dict) or (isinstance(node, list)
                                      and isinstance(last, int)
                                      and last < len(node)):
            if value is not _DELETE:
                node[last] = value
            elif isinstance(node, dict):
                node.pop(last, None)
            else:
                del node[last]
    return doc


_documents = st.lists(
    st.tuples(st.sampled_from(_PLACES),
              st.one_of(st.just(_DELETE), _numbers, _values)),
    max_size=3).map(_mutated)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents)
def test_fuzzed_model_files_load_or_raise_input_error(tmp_path, doc):
    """A model file either is rejected with InputError or gives a model
    whose coefficients evaluate without raising at 0, +-1e-310, +-1 and
    +-1e10.  No term is NaN there, so a coefficient is NaN only as a sum
    of +inf and -inf terms."""
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc).replace(f'"{_BEYOND}"', "1e400"))
    try:
        model = load_model_file(str(path))
    except InputError:
        return
    assert type(model.x0) is float and math.isfinite(model.x0)
    for x in (0.0, 1e-310, -1e-310, 1.0, -1.0, 1e10, -1e10):
        for f, v in zip((model.drift, model.diffusion, model.drift_prime,
                         model.diffusion_prime),
                        evaluate_coefficients(model, x)):
            parts = [t.value(x) if isinstance(f, PowerSum) else
                     t.derivative(x) for t in f.terms]
            assert not any(map(math.isnan, parts)), (f, x)
            assert not math.isnan(v) or {math.inf, -math.inf} <= set(parts)
