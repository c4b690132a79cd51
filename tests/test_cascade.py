"""Cascaded sensor-decoder dynamics and the trajectory engines."""
import hashlib
import threading
import warnings

import numpy as np
import pytest

from cmsense import TimeGrid, two_level_model
from cmsense.cascade import (Imperfections, cascade_generators, fisher_from_trajectories,
                             full_width_half_max, replay_records, sample_records,
                             step_matrices, vacuum_probability)
from cmsense.decoder import stationary_decoder, two_level_decoder
from cmsense.errors import ClickProbabilityOverflow, CmsenseError, RecordLengthMismatch
from cmsense.oracle import brute_counting_distribution, counting_fisher_exact


@pytest.fixture(scope="module")
def emitter():
    return two_level_model(omega=1.0, delta=0.0, gamma=1.0)


@pytest.fixture(scope="module")
def clicky_pair(emitter):
    # decoder detuned off the matched point so records carry clicks
    return cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0))


def test_cascade_dimensions_and_init(emitter):
    gen = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0))
    assert gen.dim == 4
    h = gen.h_total(0.0, 0.0)
    assert h.shape == (4, 4)
    assert np.abs(h - h.conj().T).max() < 1e-14
    # product initialization |g> (x) |g> when the decoder has no purified state
    assert np.argmax(np.abs(gen.initial_state)) == 3


def test_cascade_jump_is_collective(emitter):
    gen = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0))
    j = gen.j_total(0.0, 0.0)
    sge = np.zeros((2, 2), dtype=complex)
    sge[1, 0] = 1.0
    ref = np.kron(sge, np.eye(2)) + np.kron(np.eye(2), sge)
    assert np.abs(j - ref).max() < 1e-14


def test_direct_sensor_without_decoder(emitter):
    gen = cascade_generators(emitter, None)
    assert gen.dim == 2
    assert np.abs(gen.j_total(0.0, 0.0)[1, 0] - 1.0) < 1e-14


@pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3])
def test_vacuum_probability_defect_linear_in_dt(emitter, dt):
    from cmsense.decoder import build_decoder
    grid = TimeGrid(0.0, 20.0, dt)
    dec = build_decoder(emitter, 0.0, grid)
    gen = cascade_generators(emitter, dec)
    p = vacuum_probability(gen, 0.0, grid)
    assert abs(1.0 - p) == pytest.approx(0.184 * dt, rel=0.12)


@pytest.mark.parametrize("case", ["pure", "density", "segment", "segment_density"])
def test_replay_reproduces_sampled_loglikelihood(emitter, clicky_pair, case):
    grid = TimeGrid(0.0, 10.0, 2e-3)
    gen = clicky_pair
    if case.endswith("density"):
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0),
                                 imperfections=Imperfections(gamma=0.1, eta=0.65))
    engine = "segment" if case.startswith("segment") else "step"
    idx, ll, kind = sample_records(gen, 0.0, grid, 32, seed=3, engine=engine)
    assert kind == engine
    ll2 = replay_records(gen, 0.0, idx, grid, engine_kind=kind)
    assert np.abs(ll - ll2).max() == 0.0


@pytest.mark.parametrize("hits", [[1005], [-3], [300, 100]],
                         ids=["past_end", "negative", "decreasing"])
@pytest.mark.parametrize("engine", ["step", "segment"])
def test_replay_rejects_invalid_click_indices(clicky_pair, engine, hits):
    grid = TimeGrid(0.0, 2.0, 2e-3)  # 1000 bins
    records = [np.array([5, 17]), np.array(hits)]
    with pytest.raises(RecordLengthMismatch, match="record 1"):
        replay_records(clicky_pair, 0.0, records, grid, engine_kind=engine)


def test_step_tables_of_static_sensor_with_tabulated_decoder(emitter):
    # static sensor + build_decoder tables: the joint stacks must match the
    # per-bin joint generators bin by bin
    from cmsense.decoder import build_decoder
    grid = TimeGrid(0.0, 4.0, 2e-3)
    gen = cascade_generators(emitter, build_decoder(emitter, 0.0, grid))
    ops = step_matrices(gen, 0.1, grid)
    assert ops.pure and ops.a0.shape == (grid.n_steps, 4, 4)
    dt = grid.dt
    for k, t in enumerate(grid.left_times):
        h = gen.h_total(t, 0.1)
        j = gen.j_total(t, 0.1)
        m0 = np.eye(4) - 1j * dt * h - 0.5 * dt * (j.conj().T @ j)
        assert np.abs(ops.a0[k] - m0).max() < 1e-14
        assert np.abs(ops.a1[k] - np.sqrt(dt) * j).max() < 1e-14


def test_segment_and_step_replay_agree(clicky_pair):
    grid = TimeGrid(0.0, 20.0, 4e-4)  # 50000 bins: 16 rescaled no-click powers
    idx, _, _ = sample_records(clicky_pair, 0.0, grid, 16, seed=11, engine="step")
    ll_step = replay_records(clicky_pair, 0.0, idx, grid, engine_kind="step")
    ll_seg = replay_records(clicky_pair, 0.0, idx, grid, engine_kind="segment")
    assert np.abs(ll_step - ll_seg).max() < 1e-8


def _record_hash(indices):
    h = hashlib.sha256()
    for hits in indices:
        h.update(np.asarray(hits, dtype=np.int64).tobytes() + b"|")
    return h.hexdigest()


@pytest.mark.parametrize("case", ["pure", "density", "mismatch-4", "mismatch+4"])
def test_segment_core_reproduces_step_core(emitter, case):
    # thinning reads the step core's uniforms and draws the same records;
    # replays agree to round-off; the matched point scores exactly zero
    grid, n, theta = TimeGrid(0.0, 5.0, 2e-3), 128, 0.0
    if case == "pure":
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0))
    elif case == "density":
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0),
                                 imperfections=Imperfections(gamma=0.1, eta=0.65))
    else:
        gen = cascade_generators(emitter, two_level_decoder(1.0, float(case[8:]), 1.0))
    step = sample_records(gen, theta, grid, n, seed=8, engine="step")
    seg = sample_records(gen, theta, grid, n, seed=8)
    assert seg[2] == "segment" and sum(len(h) for h in step[0]) > n // 2
    assert _record_hash(seg[0]) == _record_hash(step[0])
    thetas = theta + np.array([1e-3, -1e-3])
    ls = replay_records(gen, thetas, step[0], grid, engine_kind="step")
    lg = replay_records(gen, thetas, step[0], grid, engine_kind="segment")
    assert np.all(np.abs(ls - lg) <= 1e-11 * np.maximum(1.0, np.abs(ls)))
    assert np.all(np.abs(step[1] - seg[1]) <= 1e-11 * np.maximum(1.0, np.abs(step[1])))
    if case.startswith("mismatch"):
        # the matched decoder at theta = 0 on the same records: the
        # +-theta tables are complex conjugates, so every score is 0.0
        matched = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0))
        lp, lm = replay_records(matched, thetas, step[0], grid)
        assert np.array_equal(lp, lm)


def test_click_overflow_guard_names_the_same_bin(clicky_pair):
    # with max_step widened and dt = 0.2 the bound |M1|^2 = 0.4 exceeds the
    # guard, so every bin is a thinning candidate and the segment core
    # stops at the step core's bin
    grid = TimeGrid(0.0, 4.0, 0.2)
    messages = []
    for engine in ("step", "segment"):
        with pytest.raises(ClickProbabilityOverflow, match=r"at bin \d+") as err:
            sample_records(clicky_pair, 0.0, grid, 64, seed=1, engine=engine,
                           max_step=10.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_sampling_is_deterministic_per_stream(clicky_pair):
    grid = TimeGrid(0.0, 5.0, 2e-3)
    a = sample_records(clicky_pair, 0.0, grid, 24, seed=9)
    b = sample_records(clicky_pair, 0.0, grid, 24, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
    assert np.array_equal(a[1], b[1])


THETA_SET = 1e-3 * np.arange(-2.0, 3.0)


def test_record_batches_start_no_thread(clicky_pair, monkeypatch):
    # small chunks (16, 16 and 8 records) all run in the calling thread,
    # whatever the threads argument says
    def refuse(self):
        raise AssertionError("a record batch started a thread")

    grid = TimeGrid(0.0, 5.0, 2e-3)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr("cmsense.cascade._CHUNK", 8)
    monkeypatch.setattr("cmsense.cascade._CHUNK_BINS", 16 * grid.n_steps)
    idx, logl, _ = sample_records(clicky_pair, 0.0, grid, 40, seed=4, threads=2)
    assert len(idx) == 40 and logl.shape == (40,)
    assert replay_records(clicky_pair, THETA_SET, idx, grid).shape == (5, 40)


@pytest.mark.parametrize("imp", [None, Imperfections(gamma=0.1, eta=0.65)],
                         ids=["pure", "density"])
def test_chunk_size_does_not_change_results(emitter, imp, monkeypatch):
    # one chunk of 40 records against chunks of 16, 16 and 8
    gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0), imp)
    grid = TimeGrid(0.0, 5.0, 2e-3)

    def run():
        idx, logl, kind = sample_records(gen, 0.0, grid, 40, seed=4)
        return (idx, logl, replay_records(gen, 1e-3, idx, grid, kind),
                replay_records(gen, THETA_SET, idx, grid, kind))

    a = run()
    monkeypatch.setattr("cmsense.cascade._CHUNK", 8)
    monkeypatch.setattr("cmsense.cascade._CHUNK_BINS", 16 * grid.n_steps)
    b = run()
    assert sum(len(x) for x in a[0]) > 0
    assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
    assert a[3].shape == (5, 40) and np.array_equal(a[3], b[3])


@pytest.mark.parametrize("case", ["pure", "density", "segment", "three_level"])
def test_replay_theta_set_matches_per_theta(emitter, clicky_pair, case):
    # hand-made records: no click at all, bins where exactly one record
    # clicks (5, 40, 999: a 1-row click branch) and a bin shared by two
    # (17); static models replay a 41-value grid in one stacked pass
    grid = TimeGrid(0.0, 2.0, 2e-3)  # 1000 bins
    gen, kind, thetas = clicky_pair, "auto", 0.3 + np.linspace(-0.2, 0.2, 41)
    if case == "density":
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0),
                                 imperfections=Imperfections(gamma=0.1, eta=0.65))
    elif case == "segment":
        kind = "segment"
    elif case == "three_level":
        from cmsense.decoder import build_decoder
        from cmsense.models import three_level_model
        sensor = three_level_model(0.0, 5.0, 1.0, T_plateau=1.0)
        gen = cascade_generators(sensor, build_decoder(sensor, 0.0, grid))
        thetas = THETA_SET
        assert gen.time_dependent
    records = [np.array([5, 17, 300]), np.array([], dtype=np.int64),
               np.array([17, 40]), np.array([999])]
    for recs in (records, records[:1], records[1:2]):
        got = replay_records(gen, thetas, recs, grid, engine_kind=kind)
        assert got.shape == (len(thetas), len(recs))
        for i, th in enumerate(thetas):
            assert np.array_equal(got[i], replay_records(gen, th, recs, grid,
                                                         engine_kind=kind))


def test_record_frequencies_match_exhaustive_distribution(emitter):
    # 8-bin cascade record statistics against the exact branch enumeration
    dec = two_level_decoder(1.0, 1.0, 1.0)
    gen = cascade_generators(emitter, dec)
    n_bins, dt, n_traj = 8, 0.1, 20000
    dist = brute_counting_distribution(emitter, 0.0, n_bins, dt, dec=dec)
    grid = TimeGrid(0.0, n_bins * dt, dt)
    idx, _, _ = sample_records(gen, 0.0, grid, n_traj, seed=21, max_step=1.0)
    counts = np.zeros(2 ** n_bins)
    weight = 2 ** np.arange(n_bins)
    for clicks in idx:
        r = int(np.sum(weight[clicks]))
        counts[r] += 1
    freq = counts / n_traj
    top = np.argsort(dist.probs)[::-1][:6]
    for r in top:
        p = dist.probs[r]
        se = np.sqrt(p * (1 - p) / n_traj)
        assert abs(freq[r] - p) < 4.0 * se + 1e-12


def test_trajectory_fisher_matches_exact_distribution_fisher():
    m = two_level_model(omega=2.0, delta=1.5, gamma=1.0)
    fi_exact = counting_fisher_exact(m, 1.5, 12, 0.05, theta_step=1e-3)
    gen = cascade_generators(m, None)
    grid = TimeGrid(0.0, 0.6, 0.05)
    fi = fisher_from_trajectories(gen, 1.5, grid, 60000, seed=7,
                                  theta_step=1e-3, max_step=1.0)
    assert fi.value == pytest.approx(fi_exact, abs=3.5 * fi.std_error)


@pytest.mark.parametrize("engine", ["step", "segment"])
@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("decoded", [False, True], ids=["emitter", "decoder"])
def test_replay_matches_exhaustive_distribution_exactly(emitter, decoded, theta, engine):
    # every 8-bin record: exp(logL) is the raw branch weight of the oracle,
    # and a record of probability zero (a click from the ground state)
    # replays to exactly -inf, with no warning on the way
    dec = two_level_decoder(1.0, 1.0, 1.0) if decoded else None
    gen = cascade_generators(emitter, dec)
    n_bins, dt = 8, 0.1
    dist = brute_counting_distribution(emitter, theta, n_bins, dt, dec=dec)
    records = [np.flatnonzero(dist.record_bits(r)) for r in range(2 ** n_bins)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        logl = replay_records(gen, theta, records, TimeGrid(0.0, n_bins * dt, dt),
                              engine_kind=engine, max_step=1.0)
    raw = dist.probs * (1.0 + dist.raw_defect)
    zero = raw == 0.0
    assert zero.sum() == (195 if decoded else 222)
    assert np.all(logl[zero] == -np.inf)
    assert np.all(np.abs(np.exp(logl[~zero]) - raw[~zero]) <= 1e-13 * raw[~zero])


def test_density_engine_agrees_with_pure_at_unit_efficiency(emitter):
    dec = two_level_decoder(1.0, 1.0, 1.0)
    gen_pure = cascade_generators(emitter, dec)
    gen_dens = cascade_generators(emitter, dec,
                                  imperfections=Imperfections(gamma=0.0, eta=1.0))
    grid = TimeGrid(0.0, 6.0, 2e-3)
    idx, _, _ = sample_records(gen_pure, 0.0, grid, 16, seed=13)
    ll_p = replay_records(gen_pure, 0.0, idx, grid)
    ll_d = replay_records(gen_dens, 0.0, idx, grid)
    assert np.abs(ll_p - ll_d).max() < 1e-9


def test_imperfections_defaults():
    imp = Imperfections(gamma=0.1)
    assert imp.dephasing == pytest.approx(0.1)
    assert Imperfections(gamma=0.1, gamma_dep=0.0).dephasing == 0.0
    with pytest.raises(CmsenseError):
        Imperfections(eta=0.0)
    with pytest.raises(CmsenseError):
        Imperfections(gamma=-0.1)


def test_fisher_estimate_bookkeeping(clicky_pair):
    grid = TimeGrid(0.0, 10.0, 2e-3)
    fi = fisher_from_trajectories(clicky_pair, 0.0, grid, 300, seed=2)
    assert fi.n_traj == 300
    assert fi.value >= 0.0
    assert fi.std_error > 0.0
    assert abs(fi.mean_score) < 5.0 * fi.mean_score_se
    assert fi.mean_clicks > 0.5
    assert fi.n_steps == grid.n_steps and fi.chunks == 1 and fi.seconds > 0.0


@pytest.mark.parametrize("case", ["dark", "clicking"])
def test_halving_dev_is_none_on_round_off_scores(clicky_pair, case):
    # the synthesized decoder keeps the three-level cascade dark, so its
    # scores are central-difference round-off (~1e-13), not information
    grid = TimeGrid(0.0, 2.0, 2e-3)
    gen = clicky_pair
    if case == "dark":
        from cmsense.decoder import build_decoder
        from cmsense.models import three_level_model
        sensor = three_level_model(0.0, 5.0, 1.0, T_plateau=0.5)
        gen = cascade_generators(sensor, build_decoder(sensor, 0.0, grid))
    fi = fisher_from_trajectories(gen, 0.0, grid, 20, seed=3)
    if case == "dark":
        assert fi.mean_clicks == 0.0 and not fi.null_point
        assert fi.halving_dev is None
    else:
        assert fi.mean_clicks > 0.0
        assert np.isfinite(fi.halving_dev) and 0.0 <= fi.halving_dev < 0.1


def test_full_width_half_max_of_peak_and_dip():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    peak = np.array([0.0, 0.25, 1.0, 0.25, 0.0])
    # half maximum 0.5 is crossed at -/+ 2/3 on the linear interpolant
    assert full_width_half_max(x, peak) == pytest.approx(4.0 / 3.0, abs=1e-15)
    # a dip (the theta = 0 null point of a mismatch sweep) has no width
    assert np.isnan(full_width_half_max(x, 1.0 - peak))
    assert np.isnan(full_width_half_max([-4.0, 0.0, 4.0], [3.1, 0.0, 2.9]))


def test_matched_stationary_cascade_stays_dark(emitter):
    # matched decoder synthesized from the steady state, purified init:
    # the detector sees (numerically) nothing at the true parameter
    dec = stationary_decoder(emitter, 0.0)
    gen = cascade_generators(emitter, dec)
    grid = TimeGrid(0.0, 8.0, 2e-3)
    idx, _, _ = sample_records(gen, 0.0, grid, 200, seed=1)
    total_clicks = sum(len(i) for i in idx)
    assert total_clicks == 0
