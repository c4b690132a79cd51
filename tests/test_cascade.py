"""Cascaded sensor-decoder dynamics and the trajectory engines."""
import hashlib
import threading
import warnings

import numpy as np
import pytest

from cmsense import TimeGrid, _engine, cascade, two_level_model
from cmsense.cascade import (Imperfections, cascade_generators,
                             fisher_from_trajectories, full_width_half_max, replay_records,
                             sample_records, step_matrices, vacuum_probability)
from cmsense.decoder import build_decoder, stationary_decoder, two_level_decoder
from cmsense.errors import ClickProbabilityOverflow, CmsenseError, RecordLengthMismatch
from cmsense.models import SensorModel, operator_stacks, three_level_model
from cmsense.oracle import brute_counting_distribution, counting_fisher_exact
from cmsense.propagate import _joint
from conftest import modulated_jump_sensor


@pytest.fixture(scope="module")
def emitter():
    return two_level_model(omega=1.0, delta=0.0, gamma=1.0)


@pytest.fixture(scope="module")
def clicky_pair(emitter):
    # decoder detuned off the matched point so records carry clicks
    return cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0))


def _joint_stacks(gen, theta, grid, ts):
    """Per-bin joint (H_c, J_c) stacks of ``gen`` at the times ``ts`` of ``grid``."""
    hs, js = operator_stacks(gen.sensor, theta, ts)
    dec = None if gen.decoder is None else cascade._decoder_stacks(gen.decoder, grid, len(ts))
    return _joint(hs, js, dec, np.empty((len(ts), gen.dim, gen.dim), dtype=complex))


def _generators_at_zero(gen, theta):
    """The joint (H_c, J_c) of the first bin of a static cascade."""
    h, j = _joint_stacks(gen, theta, TimeGrid(0.0, 1.0, 1e-3), np.zeros(1))
    return h[0], j[0]


def test_cascade_dimensions_and_init(emitter):
    gen = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0))
    assert gen.dim == 4
    h, _ = _generators_at_zero(gen, 0.0)
    assert h.shape == (4, 4)
    assert np.abs(h - h.conj().T).max() < 1e-14
    # product initialization |g> (x) |g> when the decoder has no purified state
    assert np.argmax(np.abs(gen.initial_state)) == 3


def test_cascade_jump_is_collective(emitter):
    gen = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0))
    _, j = _generators_at_zero(gen, 0.0)
    sge = np.zeros((2, 2), dtype=complex)
    sge[1, 0] = 1.0
    ref = np.kron(sge, np.eye(2)) + np.kron(np.eye(2), sge)
    assert np.abs(j - ref).max() < 1e-14


def test_direct_sensor_without_decoder(emitter):
    gen = cascade_generators(emitter, None)
    assert gen.dim == 2
    assert np.abs(_generators_at_zero(gen, 0.0)[1][1, 0] - 1.0) < 1e-14


@pytest.mark.parametrize("init", ["purified", "", ["product"]])
@pytest.mark.parametrize("with_decoder", [False, True])
def test_cascade_rejects_unknown_init(emitter, init, with_decoder):
    dec = stationary_decoder(emitter, 0.0) if with_decoder else None
    with pytest.raises(CmsenseError, match="init must be"):
        cascade_generators(emitter, dec, init=init)


@pytest.mark.parametrize("dt", [4e-3, 2e-3, 1e-3])
def test_vacuum_probability_defect_linear_in_dt(emitter, dt):
    from cmsense.decoder import build_decoder
    grid = TimeGrid(0.0, 20.0, dt)
    dec = build_decoder(emitter, 0.0, grid)
    gen = cascade_generators(emitter, dec)
    p = vacuum_probability(gen, 0.0, grid)
    assert abs(1.0 - p) == pytest.approx(0.184 * dt, rel=0.12)


@pytest.mark.parametrize("case", ["segment", "segment_density"])
def test_replay_reproduces_sampled_loglikelihood(emitter, clicky_pair, case):
    grid = TimeGrid(0.0, 10.0, 2e-3)
    gen = clicky_pair
    if case.endswith("density"):
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0),
                                 imperfections=Imperfections(gamma=0.1, eta=0.65))
    idx, ll, kind = sample_records(gen, 0.0, grid, 32, seed=3, engine="segment")
    assert kind == "segment"
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
    # static sensor + decoder stacks (per-bin build_decoder tables, or the one
    # stationary pair): the step tables must match the cascade formula bin by bin
    grid = TimeGrid(0.0, 4.0, 2e-3)
    dt, e = grid.dt, np.eye(2)
    for dec in (build_decoder(emitter, 0.0, grid), stationary_decoder(emitter, 0.0)):
        ops = step_matrices(cascade_generators(emitter, dec), 0.1, grid)
        bins = grid.n_steps if dec.time_dependent else 1
        assert ops.pure and ops.a0.shape == (bins, 4, 4)
        for k, t in enumerate(grid.left_times[:bins]):
            hs, js = emitter.hamiltonian(t, 0.1), emitter.jump(t, 0.1)
            hd, jd = dec.hd[k], dec.jd[k]
            h = (np.kron(hs, e) + np.kron(e, hd)
                 + 0.5j * (np.kron(js.conj().T, jd) - np.kron(js, jd.conj().T)))
            j = np.kron(js, e) + np.kron(e, jd)
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


def _reference_records(ops, indices, seed):
    """The per-bin sampler: the records of trajectory ``indices`` drawn bin
    by bin under the branch maps of ``ops``, one uniform per bin from each
    record's Philox(seed, index) stream and a click where it lies below
    p1 = weight(x a1).  Returns (list of click-index arrays, logL (B,))."""
    n, nb = ops.n_steps, len(indices)
    weight, root = ops.weight, ops.root
    a0t, a1t = (np.swapaxes(ops.per_bin(a), -1, -2) for a in (ops.a0, ops.a1))
    hits = np.zeros((n, nb), dtype=bool)
    gens = [np.random.Generator(np.random.Philox(key=[seed, int(i)])) for i in indices]
    block = max(1, (1 << 20) // max(nb, 1))  # bins of uniforms drawn ahead per stream
    x = np.tile(ops.x0, (nb, 1)).astype(complex)
    logl = np.zeros(nb)
    for k in range(n):
        if k % block == 0:
            ut = np.empty((nb, min(block, n - k)))
            for g, row in zip(gens, ut):
                g.random(out=row)
            u = ut.T
        cs = x @ a1t[k]
        b1 = weight(cs)
        _engine._check_p1(float(b1.max(initial=0.0)), k, ops.dt)
        np.less(u[k % block], b1, out=hits[k])
        out = x @ a0t[k]
        sel = np.flatnonzero(hits[k])
        out[sel] = cs[sel]  # a drawn click has weight p1 > u >= 0
        w = weight(out)
        out.view(np.float64)[...] *= (1.0 / root(w))[..., None]
        x = out
        logl += np.log(w)
    rec, k = np.nonzero(hits.T)
    return np.split(k, np.cumsum(np.bincount(rec, minlength=nb))[:-1]), logl


def _sampling_case(emitter, case):
    """(cascade, theta, grid) of a sampling cross-check case, where records click."""
    grid, theta = TimeGrid(0.0, 5.0, 2e-3), 0.0
    if case == "pure":
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0))
    elif case == "density":
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0),
                                 imperfections=Imperfections(gamma=0.1, eta=0.65))
    elif case.startswith("three_level"):
        # the pulsed emitter on per-bin tables; the decoder is synthesized
        # at theta = 0 and sampled far from it, so that its records click
        grid = TimeGrid(0.0, 4.0, 1e-3)
        sensor = three_level_model(0.0, 5.0, 1.0, T_plateau=1.0)
        gen = cascade_generators(sensor)
        if case.endswith("decoder"):
            gen, theta = cascade_generators(sensor, build_decoder(sensor, 0.0, grid)), 3.0
        assert gen.time_dependent
    else:
        gen = cascade_generators(emitter, two_level_decoder(1.0, float(case[8:]), 1.0))
    return gen, theta, grid


@pytest.mark.parametrize("case", ["pure", "density", "mismatch-4", "mismatch+4",
                                  "three_level", "three_level+decoder"])
def test_segment_core_reproduces_step_core(emitter, case):
    # thinning reads the per-bin sampler's uniforms and draws the same
    # records; replays agree to round-off; the matched point scores exactly zero
    gen, theta, grid = _sampling_case(emitter, case)
    n = 128
    ref = _reference_records(step_matrices(gen, theta, grid), np.arange(n), 8)
    step = sample_records(gen, theta, grid, n, seed=8, engine="step")
    seg = sample_records(gen, theta, grid, n, seed=8)
    assert seg[2] == "segment" and sum(len(h) for h in ref[0]) > n // 2
    assert _record_hash(seg[0]) == _record_hash(ref[0]) == _record_hash(step[0])
    thetas = theta + np.array([1e-3, -1e-3])
    ls = replay_records(gen, thetas, ref[0], grid, engine_kind="step")
    lg = replay_records(gen, thetas, ref[0], grid, engine_kind="segment")
    assert np.all(np.abs(ls - lg) <= 1e-11 * np.maximum(1.0, np.abs(ls)))
    assert np.all(np.abs(ref[1] - seg[1]) <= 1e-11 * np.maximum(1.0, np.abs(ref[1])))
    if case == "three_level":
        # the +-theta tables are complex conjugates, so every score is 0.0
        # (the symmetry gate 5 asserts)
        assert np.array_equal(lg[0], lg[1])
    if case.startswith("mismatch"):
        # the matched decoder at theta = 0 on the same records: the
        # +-theta tables are complex conjugates, so every score is 0.0
        matched = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0))
        lp, lm = replay_records(matched, thetas, ref[0], grid)
        assert np.array_equal(lp, lm)


@pytest.mark.parametrize("case", ["pure", "density", "three_level+decoder"])
def test_step_engine_sampling_matches_per_bin_reference(emitter, case):
    # records drawn by thinning and replayed bin by bin are the per-bin
    # sampler's, records and logL, to the bit
    gen, theta, grid = _sampling_case(emitter, case)
    idx, ll = _reference_records(step_matrices(gen, theta, grid), np.arange(64), 5)
    step = sample_records(gen, theta, grid, 64, seed=5, engine="step")
    assert step[2] == "step" and sum(len(h) for h in idx) > 0
    assert _record_hash(step[0]) == _record_hash(idx)
    assert step[1].tobytes() == ll.tobytes()


@pytest.mark.parametrize("n", [2, 37, 64, 1000])
def test_aligned_blocks_match_per_bin_product(n):
    # per-bin no-click maps: a run [pos, stop) through the aligned block
    # levels against the plain product of its bins, with the log weight
    # the block scales carry
    rng = np.random.default_rng(n)
    d = 3
    a0 = (np.eye(d) + 0.05 * (rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))))
    x0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    ops = _engine.StepOps(n, 0.1, a0, 0.1 * a0, x0, pure=True)
    seg = _engine._Segments([ops])
    assert not seg.static and len(seg.levels) == n.bit_length()
    pairs = [(0, n), (0, 0), (n, n), (n // 2, n // 2)]
    pairs += [tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(60)]
    pos, stop = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    x = seg.initial(len(pairs))
    logl = np.zeros((1, len(pairs)))
    seg.no_clicks(x, np.arange(len(pairs)), pos, stop, logl)
    for r, (a, b) in enumerate(pairs):
        v = x0.copy()
        for k in range(a, b):
            v = v @ a0[k].T
        w = np.vdot(v, v).real
        assert logl[0, r] == pytest.approx(np.log(w), rel=1e-12, abs=1e-12)
        assert np.allclose(x[0, r], v / np.sqrt(w), rtol=0.0, atol=1e-12)


def test_click_overflow_guard_names_the_same_bin(clicky_pair):
    # with max_step widened and dt = 0.2 the bound |M1|^2 = 0.4 exceeds the
    # guard, so every bin is a thinning candidate and thinning stops at
    # the per-bin sampler's bin
    grid = TimeGrid(0.0, 4.0, 0.2)
    _assert_same_overflow(clicky_pair, grid, 1, r"at bin \d+")


def _assert_same_overflow(gen, grid, seed, match):
    """sample_records raises the per-bin sampler's overflow message."""
    messages = []
    with pytest.raises(ClickProbabilityOverflow, match=match) as err:
        _reference_records(step_matrices(gen, 0.0, grid, 10.0), np.arange(64), seed)
    messages.append(str(err.value))
    for engine in ("step", "segment"):
        with pytest.raises(ClickProbabilityOverflow, match=match) as err:
            sample_records(gen, 0.0, grid, 64, seed=seed, engine=engine, max_step=10.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]


def _stepped_decay():
    """A sensor whose decay rate steps from 0.5 to 1.1 at t = 2."""
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return cascade_generators(SensorModel(
        dim=2, hamiltonian=lambda t, th: sx + th * np.diag([1.0, 0.0]),
        jump=lambda t, th: np.sqrt(0.5 + 0.6 * (t >= 2.0)) * sm,
        initial_state=np.array([0.0, 1.0]), time_dependent=True))


def test_click_overflow_guard_names_the_same_bin_time_dependent():
    # the decay rate steps from 0.5 to 1.1 at t = 2: bins 0-19 (bound
    # 0.05) are thinned, bins from 20 on (bound 0.11) are candidates for
    # every record.  Records reach a bin at different candidate ordinals,
    # and the first overflow (bin 22) is not the first one met by ordinal
    _assert_same_overflow(_stepped_decay(), TimeGrid(0.0, 4.0, 0.1), 2, r"at bin 22 ")


@pytest.mark.parametrize("rows", [1, 3])
def test_click_overflow_guards_hold_in_small_rounds(clicky_pair, rows, monkeypatch):
    # one or three candidate evaluations per thinning round: the guard
    # still counts only valid evaluations and names the per-bin sampler's bin
    monkeypatch.setattr(_engine, "_PAIR_ROWS", rows)
    _assert_same_overflow(clicky_pair, TimeGrid(0.0, 4.0, 0.2), 1, r"at bin \d+")
    _assert_same_overflow(_stepped_decay(), TimeGrid(0.0, 4.0, 0.1), 2, r"at bin 22 ")


def _scalar_ops(p):
    """A one-dimensional per-bin model whose click probability at bin k is
    exactly p[k]."""
    return _engine.StepOps(len(p), 0.1, np.sqrt(1.0 - p)[:, None, None] + 0j,
                           np.sqrt(p)[:, None, None] + 0j, np.ones(1, dtype=complex), pure=True)


def test_thinning_evaluates_nothing_past_the_first_overflow(monkeypatch):
    # a scalar model whose click probability is exactly 0.01 before bin 25
    # and 0.5 from it on: every record overflows at bin 25.  With one
    # evaluation per record and round, each evaluation is valid, so once a
    # record has met bin 25 no round looks past it
    n, kb = 40, 25
    ops = _scalar_ops(np.where(np.arange(n) < kb, 0.01, 0.5))
    seen, times = [], _engine._Segments.times

    def spy(self, x, sel, table, idx):
        if table is self.a1t:
            seen.append(int(np.max(idx)))
        return times(self, x, sel, table, idx)

    monkeypatch.setattr(_engine._Segments, "times", spy)
    monkeypatch.setattr(_engine, "_PAIR_ROWS", 1)
    with pytest.raises(ClickProbabilityOverflow, match=r"^click probability 0.5 > 0.1 at bin 25 "):
        _engine._thin(_engine._Segments([ops]), ops, np.arange(16), 3)
    assert max(seen) == kb


@pytest.mark.parametrize("case", ["pure", "density", "three_level+decoder"])
@pytest.mark.parametrize("name, value", [("_PAIR_ROWS", 1), ("_PAIR_ROWS", 3), ("_PIECE", 7)],
                         ids=["rounds_of_1", "rounds_of_3", "pieces_of_7"])
def test_thinning_rounds_and_draw_pieces_match_per_bin_reference(emitter, case, name, value,
                                                                 monkeypatch):
    # one or three candidate evaluations per round (records decided a
    # candidate or a few at a time), or streams drawn in pieces of 7
    # values: shorter than the grid, and splitting Philox's buffer of 4
    monkeypatch.setattr(_engine, name, value)
    gen, theta, grid = _sampling_case(emitter, case)
    ref = _reference_records(step_matrices(gen, theta, grid), np.arange(64), 5)[0]
    assert sum(len(h) for h in ref) > 0
    for engine in ("auto", "step"):
        idx = sample_records(gen, theta, grid, 64, seed=5, engine=engine)[0]
        assert _record_hash(idx) == _record_hash(ref)


def test_unknown_engine_is_rejected(clicky_pair):
    with pytest.raises(CmsenseError, match=r"\(auto, segment, step\)"):
        sample_records(clicky_pair, 0.0, TimeGrid(0.0, 1.0, 2e-3), 4, engine="eig")


def test_empty_grid_samples_empty_records(clicky_pair):
    idx, logl, _ = sample_records(clicky_pair, 0.0, TimeGrid(0.0, 0.0, 1e-3), 3, seed=1)
    assert [len(h) for h in idx] == [0, 0, 0] and logl.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("case", ["pulsed_three_level", "modulated_jump"])
def test_empty_grid_samples_empty_records_on_per_bin_tables(case):
    # a time-dependent model has empty per-bin tables on an empty grid
    sensor = {"pulsed_three_level": lambda: three_level_model(0.0, 5.0, 1.0, T_plateau=0.5),
              "modulated_jump": modulated_jump_sensor}[case]()
    idx, logl, _ = sample_records(cascade_generators(sensor), 0.0, TimeGrid(0.0, 0.0, 1e-3), 3,
                                  seed=1)
    assert [len(h) for h in idx] == [0, 0, 0] and logl.tolist() == [0.0, 0.0, 0.0]


def test_thinning_skips_bins_whose_click_bound_is_zero():
    # no click map on bins 0-499 and p1 = 0.01 after: a bound of 0 makes
    # no candidate (a wrap to the every-record bound would add 500 per
    # record), and the records are the per-bin sampler's
    ops = _scalar_ops(np.where(np.arange(1000) < 500, 0.0, 0.01))
    idx, cands = _engine._thin(_engine._Segments([ops]), ops, np.arange(64), 3)
    clicks = sum(len(h) for h in idx)
    assert clicks > 64 and cands < 2 * clicks
    assert min(h[0] for h in idx if len(h)) >= 500
    assert _record_hash(idx) == _record_hash(_reference_records(ops, np.arange(64), 3)[0])


@pytest.mark.parametrize("engine", ["segment", "step"])
@pytest.mark.parametrize("model", ["static", "time_dependent"])
def test_zero_records_sample_and_replay_empty(clicky_pair, engine, model):
    gen = clicky_pair if model == "static" else _stepped_decay()
    grid = TimeGrid(0.0, 1.0, 0.01)
    idx, logl, kind = sample_records(gen, 0.0, grid, 0, engine=engine)
    assert idx == [] and logl.shape == (0,) and kind == engine
    assert replay_records(gen, 0.0, [], grid, engine).shape == (0,)
    assert replay_records(gen, THETA_SET, [], grid, engine).shape == (5, 0)


def test_negative_record_count_raises(clicky_pair):
    with pytest.raises(CmsenseError, match="n_traj"):
        sample_records(clicky_pair, 0.0, TimeGrid(0.0, 1.0, 0.01), -3)


def test_fisher_estimate_needs_records(clicky_pair):
    with pytest.raises(CmsenseError, match="n_traj"):
        fisher_from_trajectories(clicky_pair, 0.0, TimeGrid(0.0, 1.0, 0.01), 0)


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


@pytest.mark.parametrize("case", ["pure", "density", "segment", "step", "step_density",
                                  "three_level"])
def test_replay_theta_set_matches_per_theta(emitter, clicky_pair, case):
    # hand-made records: no click at all, bins where exactly one record
    # clicks (5, 40, 999: a 1-row click branch) and a bin shared by two
    # (17); static models replay a 41-value grid (the bin-by-bin step
    # core, 5 values) in one stacked pass
    grid = TimeGrid(0.0, 2.0, 2e-3)  # 1000 bins
    gen, kind, thetas = clicky_pair, "auto", 0.3 + np.linspace(-0.2, 0.2, 41)
    if case.startswith(("segment", "step")):
        kind = case.split("_")[0]
    if kind == "step":
        thetas = 0.3 + THETA_SET
    if case.endswith("density"):
        gen = cascade_generators(emitter, two_level_decoder(1.0, 1.0, 1.0),
                                 imperfections=Imperfections(gamma=0.1, eta=0.65))
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


def _all_records(n_bins):
    """Every record over n_bins as click-index arrays, in the oracle's
    order: bit n of the record integer is a click in bin n."""
    return [np.flatnonzero((r >> np.arange(n_bins)) & 1) for r in range(2 ** n_bins)]


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
    records = _all_records(n_bins)
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
    # a density initial state puts the lossless, unit-efficiency model on
    # superoperators (trivial imperfections alone keep it on Kraus pairs)
    dec = two_level_decoder(1.0, 1.0, 1.0)
    gen_pure = cascade_generators(emitter, dec)
    psi = gen_pure.initial_state
    gen_dens = cascade_generators(emitter, dec, imperfections=Imperfections(gamma=0.0, eta=1.0),
                                  init=np.outer(psi, psi.conj()))
    grid = TimeGrid(0.0, 6.0, 2e-3)
    assert step_matrices(gen_dens, 0.0, grid).pure is False
    idx, _, _ = sample_records(gen_pure, 0.0, grid, 16, seed=13)
    ll_p = replay_records(gen_pure, 0.0, idx, grid)
    ll_d = replay_records(gen_dens, 0.0, idx, grid)
    assert np.abs(ll_p - ll_d).max() < 1e-9


def test_imperfections_defaults():
    assert Imperfections().trivial and not Imperfections(gamma=0.1).trivial
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
    # table build, thinning and tangent replay, inside the wall time
    stages = (fi.table_s, fi.sample_s, fi.score_s)
    assert min(stages) > 0.0 and sum(stages) <= fi.seconds


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


_GRID = TimeGrid(0.0, 2.0, 2e-3)
_THREE_GRID = TimeGrid(0.0, 10.0, 2e-3)  # the pulse sequence and 6/gamma of decay
_LOSSY = Imperfections(gamma=0.1, eta=0.65)


def _theta_jump_sensor():
    """The two-level emitter with a jump that depends on theta."""
    sge = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    base = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    return SensorModel(dim=2, hamiltonian=base.hamiltonian,
                       jump=lambda t, th: np.sqrt(1.0 + th) * sge,
                       initial_state=base.initial_state, time_dependent=False)


def _cascades():
    two = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    three = three_level_model(0.0, 5.0, 1.0, T_plateau=4.0)
    return {
        "two_level_decoder": lambda: cascade_generators(two, two_level_decoder(1.0, 0.0, 1.0)),
        "stationary_decoder": lambda: cascade_generators(two, stationary_decoder(two, 0.0)),
        "three_level_build_decoder": lambda: cascade_generators(
            three, build_decoder(three, 0.0, _THREE_GRID)),
        "three_level_direct": lambda: cascade_generators(three),
        "imperfections": lambda: cascade_generators(
            two, two_level_decoder(1.0, 0.0, 1.0), imperfections=_LOSSY),
        "imperfections_build_decoder": lambda: cascade_generators(
            two, build_decoder(two, 0.0, _GRID), imperfections=_LOSSY),
        "theta_jump": lambda: cascade_generators(_theta_jump_sensor(),
                                                 two_level_decoder(1.0, 0.0, 1.0)),
        "theta_jump_density": lambda: cascade_generators(
            _theta_jump_sensor(), two_level_decoder(1.0, 0.0, 1.0), imperfections=_LOSSY),
        "modulated_jump": lambda: cascade_generators(modulated_jump_sensor(),
                                                     two_level_decoder(1.0, 0.0, 1.0)),
    }


def _scored_cascades():
    """(cascade, theta, grid): static and time-dependent, pure and density, a
    synthesized decoder, a theta-dependent jump and one that varies in time,
    each where records click
    (the three-level decoder is synthesized at theta = 0 and sampled far from it)."""
    c = _cascades()
    short, short_grid = three_level_model(0.0, 5.0, 1.0, T_plateau=1.0), TimeGrid(0.0, 4.0, 1e-3)
    return {
        "two_level_decoder": (c["two_level_decoder"], 0.3, _GRID),
        "three_level_direct": (c["three_level_direct"], 0.2, _THREE_GRID),
        "three_level_build_decoder": (
            lambda: cascade_generators(short, build_decoder(short, 0.0, short_grid)),
            3.0, short_grid),
        **{name: (c[name], 0.3, _GRID) for name in (
            "imperfections", "imperfections_build_decoder", "theta_jump", "theta_jump_density",
            "modulated_jump")},
    }


def _scores(gen, theta, grid, records, theta_step=1e-3):
    """Scores of the given records from one table and its derivative."""
    ops = step_matrices(gen, theta, grid)
    tangent = cascade._tangent(gen, theta, grid, ops, theta_step, 0.05)
    return ops, tangent, cascade._run_records([ops], "segment", len(records), 0, records,
                                              tangent)[1][0]


def _scored_case(name):
    make, theta, grid = _scored_cascades()[name]
    gen = make()
    records = sample_records(gen, theta, grid, 8, seed=17)[0]
    assert sum(len(h) for h in records) > 0
    return gen, theta, grid, records


def _reference_scores(ops, tangent, records):
    """d log w / dtheta of each record, bin by bin: (x, dx) -> (A x, A dx + dA x)
    through the no-click or click map of each bin and its derivative."""
    n = ops.n_steps
    full = lambda a: np.broadcast_to(a, (n,) + ops.a0.shape[1:])
    da0, da1 = tangent
    maps = [(full(ops.a0), full(da0)),
            (full(ops.a1), full(np.zeros_like(ops.a1[:1]) if da1 is None else da1))]
    x = np.tile(ops.x0, (len(records), 1)).astype(complex)
    dx = np.zeros_like(x)
    clicks = np.zeros((len(records), n), dtype=bool)
    for r, h in enumerate(records):
        clicks[r, h] = True
    for k in range(n):
        (a, da) = (np.where(clicks[:, k, None, None], m1[k], m0[k])
                   for m0, m1 in zip(*maps))
        x, dx = (np.einsum("bij,bj->bi", a, x),
                 np.einsum("bij,bj->bi", a, dx) + np.einsum("bij,bj->bi", da, x))
        norm = np.linalg.norm(x, axis=1)[:, None]
        x, dx = x / norm, dx / norm
    if ops.pure:
        return 2.0 * np.einsum("bi,bi->b", dx, x.conj()).real / np.linalg.norm(x, axis=1) ** 2
    tv = np.eye(int(round(np.sqrt(len(ops.x0))))).ravel()
    return (dx @ tv).real / (x @ tv).real


@pytest.mark.parametrize("name", list(_scored_cascades()))
def test_scores_match_per_bin_reference(name):
    # the segment core's tangent levels against the plain per-bin product
    gen, theta, grid, records = _scored_case(name)
    ops, tangent, scores = _scores(gen, theta, grid, records)
    ref = _reference_scores(ops, tangent, records)
    assert np.all(np.abs(scores - ref) <= 1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("name", list(_scored_cascades()))
def test_scores_match_replay_differences(name):
    # the +-eps difference of replayed logL is the score up to O(eps^2):
    # halving eps quarters the gap
    gen, theta, grid, records = _scored_case(name)
    scores = _scores(gen, theta, grid, records)[2]
    gaps = []
    for eps in (1e-3, 5e-4):
        lp, lm = replay_records(gen, [theta + eps, theta - eps], records, grid)
        gaps.append(np.abs((lp - lm) / (2.0 * eps) - scores).max())
    assert gaps[0] <= 1e-5 * np.abs(scores).max()
    assert 3.0 < gaps[0] / gaps[1] < 5.0


@pytest.mark.parametrize("density", [False, True], ids=["kraus", "superoperator"])
@pytest.mark.parametrize("decoded", [False, True], ids=["emitter", "decoder"])
def test_scores_match_exhaustive_distribution(emitter, decoded, density):
    # every 8-bin record of positive probability at theta = 0.7: the score is
    # the derivative of the oracle's log raw weight.  A density initial state
    # puts the same model on superoperators
    dec = two_level_decoder(1.0, 1.0, 1.0) if decoded else None
    gen = cascade_generators(emitter, dec)
    if density:
        psi = gen.initial_state
        gen = cascade_generators(emitter, dec, init=np.outer(psi, psi.conj()))
    n_bins, dt, theta, h = 8, 0.1, 0.7, 1e-4
    grid = TimeGrid(0.0, n_bins * dt, dt)
    raw = {}
    for th in (theta - h, theta, theta + h):
        dist = brute_counting_distribution(emitter, th, n_bins, dt, dec=dec)
        raw[th] = dist.probs * (1.0 + dist.raw_defect)
    records = _all_records(n_bins)
    ops = step_matrices(gen, theta, grid, max_step=1.0)
    assert ops.pure is not density
    tangent = cascade._tangent(gen, theta, grid, ops, 1e-3, 1.0)
    scores = cascade._run_records([ops], "segment", len(records), 0, records, tangent)[1][0]
    live = raw[theta] > 0.0
    ref = (np.log(raw[theta + h][live]) - np.log(raw[theta - h][live])) / (2.0 * h)
    assert np.all(np.abs(scores[live] - ref) <= 1e-6 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("case", ["two_level_direct", "two_level_decoder", "three_level_direct"])
def test_scores_are_exact_zeros_at_the_symmetric_point(case, monkeypatch):
    # gate 5's setup (and the two-level pair at the resonant point): at
    # theta = 0 the tangent cancels exactly, with no round-off floor needed
    monkeypatch.setattr(_engine, "_SCORE_ROUNDOFF", 0.0)
    two = two_level_model(omega=1.0, delta=0.0, gamma=1.0)
    grid = TimeGrid(0.0, 10.0, 2e-3)
    gen = {"two_level_direct": lambda: cascade_generators(two),
           "two_level_decoder": lambda: cascade_generators(two, two_level_decoder(1.0, 0.0, 1.0)),
           "three_level_direct": lambda: cascade_generators(
               three_level_model(0.0, 5.0, 1.0, T_plateau=50.0))}[case]()
    if case == "three_level_direct":
        grid = TimeGrid(0.0, 56.0, 1e-3)
    fi = fisher_from_trajectories(gen, 0.0, grid, 64, theta_step=1e-3, seed=29)
    assert fi.mean_clicks > 1.0 and fi.null_point and fi.value == 0.0


def test_round_off_floor_zeroes_only_null_point_scores(monkeypatch):
    # the synthesized decoder keeps the three-level cascade dark at theta = 0:
    # its scores there are round-off, far below the floor, and become exact
    # zeros (a null point); at theta = 1e-6 the floor leaves every score as is
    sensor = three_level_model(0.0, 5.0, 1.0, T_plateau=0.5)
    gen = cascade_generators(sensor, build_decoder(sensor, 0.0, _GRID))
    records = [np.array([], dtype=np.int64)] * 4
    fi = fisher_from_trajectories(gen, 0.0, _GRID, 4, seed=3)
    assert fi.mean_clicks == 0.0 and fi.null_point and fi.value == 0.0
    floored = {th: _scores(gen, th, _GRID, records)[2] for th in (0.0, 1e-6)}
    monkeypatch.setattr(_engine, "_SCORE_ROUNDOFF", 0.0)
    raw = {th: _scores(gen, th, _GRID, records)[2] for th in (0.0, 1e-6)}
    assert np.all(floored[0.0] == 0.0) and np.all(raw[0.0] != 0.0)
    assert np.all(np.abs(raw[0.0]) < 1e-15)
    assert np.array_equal(floored[1e-6], raw[1e-6]) and np.all(np.abs(raw[1e-6]) > 1e-8)


def test_fisher_estimate_builds_one_table_and_one_level_set(clicky_pair, monkeypatch):
    # one table at theta and one set of levels serve sampling and scoring of
    # every chunk (three here)
    tables, levels = [], []
    tab, segments = cascade.step_matrices, _engine._Segments
    monkeypatch.setattr(cascade, "step_matrices", lambda *a: tables.append(a[1]) or tab(*a))
    monkeypatch.setattr(_engine, "_Segments", lambda *a: levels.append(1) or segments(*a))
    monkeypatch.setattr(cascade, "_CHUNK", 8)
    monkeypatch.setattr(cascade, "_CHUNK_BINS", 8 * _GRID.n_steps)
    fi = fisher_from_trajectories(clicky_pair, 0.3, _GRID, 20, seed=2)
    assert fi.chunks == 3 and fi.mean_clicks > 0.0
    assert tables == [0.3] and len(levels) == 1


@pytest.mark.parametrize("name", ["two_level_decoder", "stationary_decoder",
                                  "three_level_build_decoder", "modulated_jump"])
def test_joint_hamiltonian_order_is_exact_on_builtin_cascades(name):
    # H_c is summed as H_S x 1 + R; the earlier order (H_S x 1 + 1 x H_D) +
    # cross gives the same bits, because no entry has three nonzero terms
    gen = _cascades()[name]()
    grid = _THREE_GRID if name.startswith("three") else _GRID
    ts = grid.left_times if gen.time_dependent else np.zeros(1)
    h, _ = _joint_stacks(gen, 1e-3, grid, ts)
    hs, js = operator_stacks(gen.sensor, 1e-3, ts)
    hd, jd = (np.broadcast_to(a, (len(ts),) + a.shape[1:]) for a in (gen.decoder.hd,
                                                                    gen.decoder.jd))
    es, ed = np.eye(hs.shape[-1]), np.eye(hd.shape[-1])
    kron = lambda a, b: np.stack([np.kron(x, y) for x, y in zip(a, b)])
    dag = lambda a: np.conj(np.swapaxes(a, -1, -2))
    old = ((kron(hs, [ed] * len(ts)) + kron([es] * len(ts), hd))
           + 0.5j * (kron(dag(js), jd) - kron(js, dag(jd))))
    assert h.tobytes() == old.tobytes()
