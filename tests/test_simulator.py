"""Tests for the pulse-level protocol simulation."""

import dataclasses
import io
import itertools
import math

import numpy as np
import pulses_reference
import pytest

from bb84_weakrand import simulator
from bb84_weakrand.errors import TIME_BUDGET_S, InsufficientDataError, ValidationError
from bb84_weakrand.keyrate import HiddenVariableModel
from bb84_weakrand.output import canonical_json, csv_text
from bb84_weakrand.quantum_core import (
    PauliChannel,
    apply_channel,
    build_source_state,
    error_rates,
)
from bb84_weakrand.simulator import (
    DUMP_HEADER,
    Attacker,
    SimConfig,
    _dump_rows,
    _qber_with_error,
    _run_pulses,
    _tally,
    basis_flip_probabilities,
    predicted_basis,
    simulate,
)


def config(**overrides) -> SimConfig:
    defaults = dict(
        n_pulses=20000,
        hv=HiddenVariableModel.balanced(),
        channel=PauliChannel.identity(),
        bob_basis_prob=0.5,
        attacker=Attacker.NONE,
        seed=411,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def dumped(cfg: SimConfig):
    """(report, dump text) of one run."""
    handle = io.StringIO()
    report = simulate(cfg, handle)
    return report, handle.getvalue()


def dump_columns(text: str) -> dict[str, list[str]]:
    """The dump's fields by column name, checking its header."""
    header, *rows = text.splitlines()
    assert header == ",".join(DUMP_HEADER)
    return dict(zip(DUMP_HEADER, zip(*(row.split(",") for row in rows))))


# No pulse is sifted: Bob always measures rectilinearly, Alice never does.
NEVER_SIFTED = dict(
    hv=HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (0.0, 0.0)), bob_basis_prob=1.0
)


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def expected_attack_stats(hv: HiddenVariableModel) -> tuple[float, float]:
    """Exact enumeration of the intercept-resend branches, identity channel.

    Walks every (lambda1, Alice basis, Eve outcome, Bob outcome) branch
    with its probability, conditioned on the pulse being sifted, and
    returns (added QBER, Eve agreement).  Eve reads the bit exactly when
    her predicted basis matches Alice's; otherwise her outcome and Bob's
    sifted outcome are independent fair coins.
    """
    sift_weight = 0.0
    error_weight = 0.0
    agree_weight = 0.0
    for lam in (0, 1):
        p_lam = hv.p_lambda1 if lam == 0 else 1.0 - hv.p_lambda1
        guess = predicted_basis(hv, lam)
        for basis in (0, 1):
            p_basis = (
                hv.p_x1_given_l1[lam] if basis == 0 else 1.0 - hv.p_x1_given_l1[lam]
            )
            weight = p_lam * p_basis * 0.5  # Bob matches Alice's basis half the time
            sift_weight += weight
            if guess == basis:
                agree_weight += weight  # Eve reads the encoded bit exactly
            else:
                error_weight += weight * 0.5
                agree_weight += weight * 0.5
    return error_weight / sift_weight, agree_weight / sift_weight


class TestDeterminism:
    def test_same_seed_same_report(self):
        first = simulate(config())
        second = simulate(config())
        assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_different_seed_differs(self):
        assert simulate(config()).qber_rec != simulate(
            config(seed=412, channel=PauliChannel(0.9, 0.0, 0.1, 0.0))
        ).qber_rec

    def test_run_prefix_independent_of_length(self):
        """Per-pulse draws are consumed in fixed order, so runs share prefixes."""
        attack = Attacker.INTERCEPT_RESEND_WITH_HINTS
        _, long_dump = dumped(config(n_pulses=400, attacker=attack))
        _, short_dump = dumped(config(n_pulses=150, attacker=attack))
        long_lines = long_dump.splitlines(keepends=True)
        assert len(long_lines) == 1 + 400
        assert "".join(long_lines[: 1 + 150]) == short_dump


class TestCleanChannel:
    def test_identity_channel_no_errors(self):
        report = simulate(config())
        assert report.qber_estimate == 0.0
        assert report.qber_std_error == 0.0
        assert report.sifted_count > 0
        assert report.eve_agreement is None
        assert report.derived_rates["one_step"]["rate"] == 1.0

    def test_bit_flip_channel_hits_rectilinear_only(self):
        report = simulate(
            config(n_pulses=200000, channel=PauliChannel(0.95, 0.0, 0.05, 0.0))
        )
        n_rec, n_dia = report.basis_counts
        assert abs(report.qber_rec - 0.05) <= three_sigma(0.05, n_rec)
        assert report.qber_dia == 0.0
        assert abs(report.qber_estimate - 0.025) <= three_sigma(0.025, report.sifted_count)

    def test_phase_flip_channel_hits_diagonal_only(self):
        report = simulate(
            config(n_pulses=200000, channel=PauliChannel(0.9, 0.1, 0.0, 0.0))
        )
        n_rec, n_dia = report.basis_counts
        assert report.qber_rec == 0.0
        assert abs(report.qber_dia - 0.1) <= three_sigma(0.1, n_dia)


class TestStatisticalInvariants:
    def test_sifting_rate(self):
        hv = HiddenVariableModel(0.5, 0.3, (0.5, 0.5), (0.7, 0.4))
        bob_rec = 0.6
        report = simulate(config(n_pulses=200000, hv=hv, bob_basis_prob=bob_rec))
        p_rec = hv.marginal_x1_zero()
        expected = p_rec * bob_rec + (1.0 - p_rec) * (1.0 - bob_rec)
        observed = report.sifted_count / report.n_pulses
        assert abs(observed - expected) <= three_sigma(expected, report.n_pulses)

    def test_observable_marginals(self):
        hv = HiddenVariableModel(0.25, 0.5, (0.8, 0.4), (0.55, 0.45))
        report = simulate(config(n_pulses=200000, hv=hv))
        for observed, expected in (
            (report.p_x0_zero_observed, hv.marginal_x0_zero()),
            (report.p_x1_zero_observed, hv.marginal_x1_zero()),
        ):
            assert abs(observed - expected) <= three_sigma(expected, report.n_pulses)

    def test_qber_matches_density_matrix_route(self, rng):
        """Sampled flips agree with the exact per-basis error rates."""
        for seed in range(3):
            channel = PauliChannel(*rng.dirichlet([8.0, 1.0, 1.0, 1.0]))
            report = simulate(config(n_pulses=150000, channel=channel, seed=seed))
            source = build_source_state(0.5)
            expected_rec = error_rates(apply_channel(source, channel, 1.0)).e_bit
            expected_dia = error_rates(apply_channel(source, channel, 0.0)).e_bit
            n_rec, n_dia = report.basis_counts
            assert abs(report.qber_rec - expected_rec) <= max(
                three_sigma(expected_rec, n_rec), 1e-9
            )
            assert abs(report.qber_dia - expected_dia) <= max(
                three_sigma(expected_dia, n_dia), 1e-9
            )


class TestFlipShortcut:
    def test_matches_density_matrix_rates(self, rng):
        """Per-basis flip probabilities equal the exact channel error rates."""
        source = build_source_state(0.5)
        for _ in range(1000):
            channel = PauliChannel(*rng.dirichlet(np.ones(4)))
            flip_rec, flip_dia = basis_flip_probabilities(channel)
            exact_rec = error_rates(apply_channel(source, channel, 1.0)).e_bit
            exact_dia = error_rates(apply_channel(source, channel, 0.0)).e_bit
            assert flip_rec == pytest.approx(exact_rec, abs=1e-12)
            assert flip_dia == pytest.approx(exact_dia, abs=1e-12)


class TestAttacker:
    def test_known_basis_attack_is_invisible(self):
        hv = HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (1.0, 0.0))
        report = simulate(
            config(
                n_pulses=100000,
                hv=hv,
                attacker=Attacker.INTERCEPT_RESEND_WITH_HINTS,
            )
        )
        assert report.qber_estimate == 0.0
        assert report.eve_agreement == 1.0

    def test_blind_attack_adds_quarter_error(self):
        report = simulate(
            config(n_pulses=400000, attacker=Attacker.INTERCEPT_RESEND_WITH_HINTS)
        )
        expected, _ = expected_attack_stats(HiddenVariableModel.balanced())
        assert expected == 0.25
        assert abs(report.qber_estimate - expected) <= three_sigma(
            expected, report.sifted_count
        )

    def test_partial_hint_attack(self):
        hv = HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (0.6, 0.4))
        expected_qber, expected_agreement = expected_attack_stats(hv)
        assert expected_qber == pytest.approx(0.2, abs=1e-15)
        assert expected_agreement == pytest.approx(0.8, abs=1e-15)
        report = simulate(
            config(
                n_pulses=400000,
                hv=hv,
                attacker=Attacker.INTERCEPT_RESEND_WITH_HINTS,
            )
        )
        assert abs(report.qber_estimate - expected_qber) <= three_sigma(
            expected_qber, report.sifted_count
        )
        assert abs(report.eve_agreement - expected_agreement) <= three_sigma(
            expected_agreement, report.sifted_count
        )

    def test_prediction_tie_breaks_rectilinear(self):
        assert predicted_basis(HiddenVariableModel.balanced(), 0) == 0
        assert predicted_basis(HiddenVariableModel.balanced(), 1) == 0


class TestEstimateQber:
    def test_all_correct(self):
        assert _qber_with_error(0, 8) == (0.0, 0.0)

    def test_one_error_in_four(self):
        p_hat, err = _qber_with_error(1, 4)
        assert p_hat == 0.25
        assert err == pytest.approx(0.21650635094610966, abs=1e-12)

    def test_planted_error_pattern(self):
        """Counts of planted columns: 13 errors in 100 sifted pulses, and
        unsifted pulses whose errors are ignored."""
        sifted = np.array([True] * 100 + [False] * 20)
        x0 = np.zeros(120, dtype=np.int8)
        bob_bit = np.array([1] * 13 + [0] * 87 + [1] * 20, dtype=np.int8)
        x1 = np.array([0] * 60 + [1] * 40 + [0] * 20, dtype=np.int8)
        eve_guess = np.array([0] * 90 + [1] * 30, dtype=np.int8)
        columns = (x0, x0, x0, x1, x1, bob_bit, sifted, eve_guess)
        counts = _tally(dict(zip(DUMP_HEADER, columns))).tolist()
        # sifted, errors, rec, dia, rec errors, dia errors, Eve agreements,
        # x0 == 0, x1 == 0
        assert counts == [100, 13, 60, 40, 13, 0, 90, 120, 80]
        p_hat, err = _qber_with_error(counts[1], counts[0])
        assert p_hat == pytest.approx(0.13, abs=1e-15)
        assert err == pytest.approx(0.03363034344160047, abs=1e-12)

    def test_no_sifted_records(self):
        with pytest.raises(InsufficientDataError):
            simulate(config(n_pulses=500, **NEVER_SIFTED))

    def test_agrees_with_report(self):
        """Every count of the report, recomputed from the dump's rows."""
        cfg = config(
            n_pulses=5000,
            channel=PauliChannel(0.9, 0.05, 0.03, 0.02),
            attacker=Attacker.INTERCEPT_RESEND_WITH_HINTS,
        )
        report, text = dumped(cfg)
        cols = dump_columns(text)
        sifted = [i for i, flag in enumerate(cols["sifted"]) if flag == "1"]
        errors = [i for i in sifted if cols["bob_bit"][i] != cols["x0"][i]]
        rec = [i for i in sifted if cols["x1"][i] == "0"]
        p_hat, err = _qber_with_error(len(errors), len(sifted))
        assert report.sifted_count == len(sifted)
        assert (report.qber_estimate, report.qber_std_error) == (p_hat, err)
        assert report.basis_counts == (len(rec), len(sifted) - len(rec))
        assert report.qber_rec == len(set(errors) & set(rec)) / len(rec)
        assert report.eve_agreement == sum(
            cols["eve_guess"][i] == cols["x0"][i] for i in sifted
        ) / len(sifted)
        assert report.p_x0_zero_observed == cols["x0"].count("0") / 5000
        assert report.p_x1_zero_observed == cols["x1"].count("0") / 5000


class TestRecordsAndReport:
    def test_sifting_flag_matches_bases(self):
        _, text = dumped(config(n_pulses=2000))
        cols = dump_columns(text)
        assert cols["sifted"] == tuple(
            str(int(x1 == y)) for x1, y in zip(cols["x1"], cols["y"])
        )
        assert set(cols["eve_guess"]) == {""}
        assert set(cols["sifted"]) == {"0", "1"}

    def test_attacker_records_carry_guesses(self):
        """Over an identity channel with fair hidden variables Eve always
        measures rectilinearly: she reads x0 exactly on rectilinear pulses,
        and Bob reads her guess whenever he measures rectilinearly."""
        _, text = dumped(
            config(n_pulses=500, attacker=Attacker.INTERCEPT_RESEND_WITH_HINTS)
        )
        cols = dump_columns(text)
        assert set(cols["eve_guess"]) == {"0", "1"}
        rows = list(zip(cols["x0"], cols["x1"], cols["y"], cols["bob_bit"], cols["eve_guess"]))
        assert any(x1 == "1" for _, x1, _, _, _ in rows)
        for x0, x1, y, bob_bit, guess in rows:
            if x1 == "0":
                assert guess == x0
            if y == "0":
                assert bob_bit == guess

    def test_basis_counts_partition_sifted(self):
        report = simulate(config(n_pulses=30000))
        assert sum(report.basis_counts) == report.sifted_count

    def test_derived_rates_track_hidden_variable_deviation(self):
        hv = HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (0.6, 0.4))
        report = simulate(config(n_pulses=50000, hv=hv))
        derived = report.derived_rates
        assert derived["deviation"]["eps1"] == pytest.approx(0.1, abs=1e-15)
        assert derived["two_step"]["rate"] >= derived["one_step"]["rate"] - 1e-6

    def test_high_error_run_reports_no_rates(self):
        report = simulate(
            config(n_pulses=20000, channel=PauliChannel(0.0, 0.0, 0.0, 1.0))
        )
        assert report.qber_rec == 1.0
        assert report.qber_dia == 1.0
        assert report.derived_rates is None


class TestDump:
    @pytest.mark.parametrize("attacker", list(Attacker))
    def test_matches_csv_text_reference(self, attacker):
        """The streamed dump equals ``csv_text`` over the pulse columns."""
        cfg = config(
            n_pulses=300,
            hv=HiddenVariableModel(0.3, 0.6, (0.7, 0.4), (0.65, 0.45)),
            channel=PauliChannel(0.85, 0.05, 0.06, 0.04),
            bob_basis_prob=0.4,
            attacker=attacker,
        )
        buf = np.empty((cfg.n_pulses, 8))
        run = _run_pulses(cfg, np.random.default_rng(cfg.seed), cfg.n_pulses, buf)
        columns = [
            [None] * cfg.n_pulses if run[name] is None else run[name].tolist()
            for name in DUMP_HEADER
        ]
        rows = [list(row) for row in zip(*columns)]
        _, text = dumped(cfg)
        assert text == csv_text(list(DUMP_HEADER), rows)

    @pytest.mark.parametrize(
        "chunk, n_pulses",
        [(1, 1000), (7, 1000), (simulator.CHUNK_PULSES, 2 * simulator.CHUNK_PULSES + 3)],
    )
    def test_chunk_size_does_not_change_bytes(self, chunk, n_pulses, monkeypatch):
        """Any chunking gives the bytes of one draw for the whole run."""
        cfg = config(
            n_pulses=n_pulses,
            hv=HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (0.6, 0.4)),
            channel=PauliChannel(0.95, 0.0, 0.05, 0.0),
            attacker=Attacker.INTERCEPT_RESEND_WITH_HINTS,
        )
        monkeypatch.setattr(simulator, "CHUNK_PULSES", n_pulses)
        reference_report, reference_dump = dumped(cfg)
        monkeypatch.setattr(simulator, "CHUNK_PULSES", chunk)
        report, dump = dumped(cfg)
        assert dump == reference_dump
        assert canonical_json(report.to_dict()) == canonical_json(reference_report.to_dict())

    def test_written_when_nothing_is_sifted(self):
        handle = io.StringIO()
        with pytest.raises(InsufficientDataError):
            simulate(config(n_pulses=300, **NEVER_SIFTED), handle)
        cols = dump_columns(handle.getvalue())
        assert len(cols["sifted"]) == 300
        assert set(cols["sifted"]) == {"0"}


class TestValidation:
    def test_pulse_count(self):
        with pytest.raises(ValidationError):
            config(n_pulses=0)

    def test_pulse_cap_is_a_day_at_the_measured_rate(self):
        assert simulator.MAX_PULSES == 2**40
        budget_pulses = TIME_BUDGET_S * simulator.PULSES_PER_S
        assert simulator.MAX_PULSES <= budget_pulses < 2 * simulator.MAX_PULSES

    def test_pulse_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_PULSES", 10)
        assert config(n_pulses=10).n_pulses == 10
        with pytest.raises(ValidationError, match="n_pulses=11 is above the cap of 10 pulses"):
            config(n_pulses=11)

    def test_seed_range(self):
        with pytest.raises(ValidationError):
            config(seed=-1)
        with pytest.raises(ValidationError):
            config(seed=2**64)

    def test_bob_basis_probability(self):
        with pytest.raises(ValidationError):
            config(bob_basis_prob=1.5)

    def test_unknown_attacker_names_the_valid_ones(self):
        with pytest.raises(ValidationError, match="'eve'.*none, intercept-resend-with-hints"):
            config(attacker="eve")

    def test_attacker_given_by_value(self):
        assert config(attacker="intercept-resend-with-hints").attacker is (
            Attacker.INTERCEPT_RESEND_WITH_HINTS
        )


# Corner grid of the reference check: every channel vertex and channels
# with zero probabilities; hidden-variable probabilities of exactly 0
# and 1, and basis probabilities of 1/2, where Eve's prediction ties.
CORNER_CHANNELS = [
    PauliChannel(1.0, 0.0, 0.0, 0.0),
    PauliChannel(0.0, 1.0, 0.0, 0.0),
    PauliChannel(0.0, 0.0, 1.0, 0.0),
    PauliChannel(0.0, 0.0, 0.0, 1.0),
    PauliChannel(0.5, 0.0, 0.5, 0.0),
    PauliChannel(0.0, 0.25, 0.0, 0.75),
    PauliChannel(0.85, 0.05, 0.06, 0.04),
]
CORNER_MODELS = [
    HiddenVariableModel.balanced(),
    HiddenVariableModel(0.0, 1.0, (0.0, 1.0), (1.0, 0.0)),
    HiddenVariableModel(1.0, 0.0, (1.0, 0.0), (0.0, 1.0)),
    HiddenVariableModel(0.3, 0.6, (0.7, 0.4), (0.5, 0.45)),
    HiddenVariableModel(0.3, 0.6, (0.7, 0.4), (0.65, 0.45)),
]
CORNER_GRID = [
    config(n_pulses=simulator.CHUNK_PULSES + 8, hv=hv, channel=channel,
           bob_basis_prob=bob, attacker=attacker)
    for channel, hv, bob, attacker in itertools.product(
        CORNER_CHANNELS, CORNER_MODELS, (0.0, 0.4, 1.0), list(Attacker)
    )
]


class ThresholdStream:
    """Stands in for a generator's ``random``, drawing only the config's
    thresholds, the float just below each, 0 and 1/2, so every
    comparison meets its ties.  Two streams of one config draw alike."""

    def __init__(self, cfg: SimConfig):
        hv = cfg.hv
        edges = {0.0, 0.5, hv.p_lambda0, hv.p_lambda1, cfg.bob_basis_prob,
                 *hv.p_x0_given_l0, *hv.p_x1_given_l1,
                 *np.cumsum(cfg.channel.probabilities()).tolist()}
        below = {np.nextafter(edge, 0.0) for edge in edges}
        self.pool = np.array(sorted(value for value in edges | below if value < 1.0))
        self.rng = np.random.default_rng(cfg.seed)

    def random(self, size=None, out=None):
        values = self.pool[self.rng.integers(len(self.pool), size=size or out.shape)]
        if out is None:
            return values
        out[...] = values
        return out


class TestReferencePlayOut:
    """The bit-logic play-out gives the ``np.where`` reference's columns,
    counts and dump bytes from the same stream."""

    @pytest.mark.parametrize("chunk", [1, 7, simulator.CHUNK_PULSES + 3])
    @pytest.mark.parametrize("stream", ["generator", "thresholds"])
    def test_columns_tallies_and_rows_match(self, chunk, stream):
        for cfg in CORNER_GRID:
            if chunk < 8:  # a chunk of one pulse costs a call; keep it short
                cfg = dataclasses.replace(cfg, n_pulses=20)
            rng, reference_rng = (
                np.random.default_rng(cfg.seed) if stream == "generator" else ThresholdStream(cfg)
                for _ in range(2)
            )
            # One draw buffer for every chunk, as ``simulate`` reuses it.
            buf = np.empty((min(chunk, cfg.n_pulses), 8))
            for start in range(0, cfg.n_pulses, chunk):
                k = min(chunk, cfg.n_pulses - start)
                run = _run_pulses(cfg, rng, k, buf)
                reference = pulses_reference._run_pulses(cfg, reference_rng, k)
                for name in DUMP_HEADER:
                    if reference[name] is None:
                        assert run[name] is None, (name, cfg)
                    else:
                        assert run[name].dtype == np.int8, (name, cfg)
                        assert np.array_equal(run[name], reference[name]), (name, cfg)
                assert _tally(run).tolist() == pulses_reference._tally(reference).tolist(), cfg
                assert _dump_rows(run) == _dump_rows(reference), cfg

    @pytest.mark.parametrize("chunk", [1, 7, simulator.CHUNK_PULSES + 3])
    @pytest.mark.parametrize("attacker", list(Attacker))
    def test_simulate_dump_matches(self, chunk, attacker, monkeypatch):
        """``simulate``'s dump and counts at any chunk size, against the
        reference run over the whole stream in one chunk."""
        cfg = config(
            n_pulses=60 if chunk < 8 else 2 * chunk + 5,
            hv=HiddenVariableModel(0.3, 0.6, (0.7, 0.4), (0.5, 0.45)),
            channel=PauliChannel(0.85, 0.05, 0.06, 0.04),
            bob_basis_prob=0.4,
            attacker=attacker,
        )
        reference = pulses_reference._run_pulses(
            cfg, np.random.default_rng(cfg.seed), cfg.n_pulses
        )
        counts = pulses_reference._tally(reference).tolist()
        monkeypatch.setattr(simulator, "CHUNK_PULSES", chunk)
        report, text = dumped(cfg)
        assert text == ",".join(DUMP_HEADER) + "\n" + _dump_rows(reference)
        assert report.sifted_count == counts[0]
        assert report.basis_counts == (counts[2], counts[3])
        assert report.qber_estimate == counts[1] / counts[0]
