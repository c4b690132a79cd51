"""Cascaded sensor-decoder dynamics and the trajectory engines."""
import hashlib
import threading
import tracemalloc
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
from cmsense.propagate import (_batched_kron, _bin_times, _decoder_stacks, _joint,
                               _kraus_tables, _theta_tables)
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
    dec = None if gen.decoder is None else _decoder_stacks(gen.decoder, grid, len(ts))
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


@pytest.mark.parametrize("init", ["purified", "", ["product"], "product"])
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
    assert not seg.static
    pairs = [(0, n), (0, 0), (n, n), (n // 2, n // 2)]
    pairs += [tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(60)]
    pos, stop = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    x = seg.initial(len(pairs))
    logl = np.zeros((1, len(pairs)))
    seg.no_clicks(x, np.arange(len(pairs)), pos, stop, logl)
    assert len(seg.levels) == n.bit_length()
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
        dim=2, stacks=lambda ts: (np.broadcast_to(sx, (len(ts), 2, 2)),
                                  np.sqrt(0.5 + 0.6 * (ts >= 2.0))[:, None, None] * sm),
        generator=np.diag([1.0, 0.0]), initial_state=np.array([0.0, 1.0])))


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
    for engine in ("segment", "step"):
        idx = sample_records(gen, theta, grid, 64, seed=5, engine=engine)[0]
        assert _record_hash(idx) == _record_hash(ref)


def test_unknown_engine_is_rejected(clicky_pair):
    for engine in ("eig", "auto"):
        with pytest.raises(CmsenseError, match=r"\(segment, step\)"):
            sample_records(clicky_pair, 0.0, TimeGrid(0.0, 1.0, 2e-3), 4, engine=engine)


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
    assert replay_records(gen, np.array([]), [np.array([1])], grid, engine).shape == (0, 1)


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
    # one chunk of 512 x 5000 draws, and small chunks (16, 16 and 8
    # records), all run in the calling thread, whatever the threads
    # argument says
    def refuse(self):
        raise AssertionError("a record batch started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    idx, logl, _ = sample_records(clicky_pair, 0.0, TimeGrid(0.0, 10.0, 2e-3), 512, seed=4,
                                  threads=2)
    assert len(idx) == 512 and logl.shape == (512,)
    grid = TimeGrid(0.0, 5.0, 2e-3)
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
    gen, kind, thetas = clicky_pair, "segment", 0.3 + np.linspace(-0.2, 0.2, 41)
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
        "modulated_jump": lambda: cascade_generators(modulated_jump_sensor(),
                                                     two_level_decoder(1.0, 0.0, 1.0)),
    }


def _scored_cascades():
    """(cascade, theta, grid): static and time-dependent, pure and density, a
    synthesized decoder and a jump that varies in time, each where records
    click
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
            "imperfections", "imperfections_build_decoder", "modulated_jump")},
    }


def _run_whole(ops, tangent, kind, records):
    """``cascade._run_records`` of the given records over the whole grid as
    one window of the tables ``ops`` and ``tangent``: logL or scores."""
    return cascade._run_records(lambda lo, hi, spare: (ops, tangent), [(0, ops[0].n_steps)], kind,
                                len(records), 0, records)[1]


def _scored_tables(gen, theta, grid, max_step=0.05):
    """The step tables of ``gen`` at theta over the whole grid and their
    no-click derivative, from one builder pass."""
    (ops,), tangent = _theta_tables(gen, [theta], grid, max_step, scoring=True)
    return ops, tangent


def _scores(gen, theta, grid, records):
    """Scores of the given records from one table and its derivative."""
    ops, tangent = _scored_tables(gen, theta, grid)
    return ops, tangent, _run_whole([ops], tangent, "segment", records)[0]


def _scored_case(name):
    make, theta, grid = _scored_cascades()[name]
    gen = make()
    records = sample_records(gen, theta, grid, 8, seed=17)[0]
    assert sum(len(h) for h in records) > 0
    return gen, theta, grid, records


def _reference_scores(ops, tangent, records):
    """d log w / dtheta of each record, bin by bin: (x, dx) -> (A x, A dx + dA x)
    through the no-click or click map of each bin and its derivative (zero
    for the click map)."""
    n = ops.n_steps
    full = lambda a: np.broadcast_to(a, (n,) + ops.a0.shape[1:])
    maps = [(full(ops.a0), full(tangent)), (full(ops.a1), full(np.zeros_like(ops.a1[:1])))]
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


def _central_difference_tangent(gen, theta, grid, ops, step=1e-3, max_step=0.05):
    """The no-click derivative from a central difference of the sensor's
    Hamiltonian stacks at theta +/- step (the jump is theta-free), cascaded
    as H_c of (dH_S, 0) with H_D = 0, then the product rule on
    superoperators: the route that the generator's exact derivative
    replaced, kept here as its reference."""
    ts = grid.left_times if gen.time_dependent else grid.left_times[:1]
    hp, hm = (operator_stacks(gen.sensor, theta + e, ts)[0] for e in (step, -step))
    dhs = (hp - hm) / (2.0 * step)
    if (dhs == dhs[:1]).all():
        dhs = dhs[:1]
    n, dh, dec = len(dhs), dhs, None
    if gen.decoder is not None:
        dec = _decoder_stacks(gen.decoder, grid, len(ts))
        dh = _joint(dhs, np.zeros_like(dhs), (np.zeros_like(dec[0][:n]), dec[1][:n]),
                    np.empty((n, gen.dim, gen.dim), dtype=complex))[0]
    da0 = -1j * grid.dt * dh
    if ops.pure:
        return da0
    m0 = _kraus_tables(*operator_stacks(gen.sensor, theta, ts), grid.dt, max_step, ts, dec,
                       gen.extra_lindblad)[0]
    da0 = np.broadcast_to(da0, m0.shape)
    return _batched_kron(da0, m0.conj()) + _batched_kron(m0, da0.conj())


@pytest.mark.parametrize("name", list(_scored_cascades()))
def test_exact_tangent_matches_the_central_difference(name):
    # G x 1 against the central difference at the scored theta, to round-off
    # of the difference; at theta = 0 the difference is exact: the same bits
    make, theta, grid = _scored_cascades()[name]
    gen = make()
    for th in (theta, 0.0):
        ops, exact = _scored_tables(gen, th, grid)
        ref = _central_difference_tangent(gen, th, grid, ops)
        assert exact.shape == ref.shape
        assert np.abs(exact - ref).max() <= 1e-10 * np.abs(ref).max()
    assert exact.tobytes() == ref.tobytes()


def _frozen_tangent(gen, theta, grid, ops, max_step, lo=0):
    """Reference code: the separate derivative builder that the one-pass
    tangent replaced, as it was.  dA0 = -i dt (G x 1_D) on Kraus pairs;
    superoperators take the product rule on the Kraus stacks of bins
    lo..lo+ops.n_steps-1, built a second time."""
    g = gen.sensor.generator
    if gen.decoder is not None:
        g = np.kron(g, np.eye(gen.decoder.dim))
    da0 = -1j * grid.dt * g[None]
    if ops.pure:
        return da0
    ts = _bin_times(grid, not gen.time_dependent, lo, lo + ops.n_steps)
    dec = None if gen.decoder is None else _decoder_stacks(gen.decoder, grid, len(ts), lo)
    m0 = _kraus_tables(*operator_stacks(gen.sensor, theta, ts), grid.dt, max_step, ts, dec,
                       gen.extra_lindblad)[0]
    da0 = np.broadcast_to(da0, m0.shape)
    return _batched_kron(da0, m0.conj()) + _batched_kron(m0, da0.conj())


@pytest.mark.parametrize("name", list(_scored_cascades()))
def test_one_pass_tangent_is_bitwise_the_frozen_tangent(name, monkeypatch):
    # the derivative that comes with the tables, over the whole grid and in
    # 64-bin windows (from lo > 0 on per-bin tables), against the separate
    # builder it replaced: the same bits, the same shape
    make, theta, grid = _scored_cascades()[name]
    gen = make()
    _window_bins(monkeypatch, gen, 64, scoring=True)
    tables, windows = cascade._tables(gen, [theta], grid, 0.05, True)
    assert (len(windows) > 1) is gen.time_dependent
    for lo, hi in [(0, grid.n_steps)] + windows:
        (ops,), tangent = tables(lo, hi, None)
        ref = _frozen_tangent(gen, theta, grid, ops, 0.05, lo)
        assert tangent.shape == ref.shape and tangent.tobytes() == ref.tobytes()


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
    ops, tangent = _scored_tables(gen, theta, grid, max_step=1.0)
    assert ops.pure is not density
    scores = _run_whole([ops], tangent, "segment", records)[0]
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
    tab, segments = cascade._theta_tables, _engine._Segments
    monkeypatch.setattr(cascade, "_theta_tables", lambda *a: tables.append(a[1]) or tab(*a))
    monkeypatch.setattr(_engine, "_Segments", lambda *a: levels.append(1) or segments(*a))
    monkeypatch.setattr(cascade, "_CHUNK", 8)
    monkeypatch.setattr(cascade, "_CHUNK_BINS", 8 * _GRID.n_steps)
    fi = fisher_from_trajectories(clicky_pair, 0.3, _GRID, 20, seed=2)
    assert fi.chunks == 3 and fi.mean_clicks > 0.0
    assert tables == [[0.3]] and len(levels) == 1 and fi.windows == 1


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


def test_thinning_keeps_a_strongly_decaying_mode_in_range():
    # the state sits in a mode that decays by b = 2^-0.3 per bin and
    # clicks with p1 = 1e-3 there: over a gap of ~1800 bins its squared
    # norm falls below 2^-1074, so thinning's unnormalized products would
    # reach 0/0 without the range guard.  No single block (at most 1024
    # bins, a factor 2^-600 on the squared norm) leaves the normal range
    n, b, p = 2047, 2.0 ** -0.3, 1e-3
    ops = _engine.StepOps(n, 0.1, np.diag([1.0, b])[None] + 0j,
                          np.diag([0.0, np.sqrt(p)])[None] + 0j,
                          np.array([0.0, 1.0], dtype=complex), pure=True)
    ref = _reference_records(ops, np.arange(64), 6)[0]
    gaps = np.concatenate([np.diff(np.concatenate([[-1], h, [n]])) for h in ref])
    assert gaps.max() > 1800
    # the records share their start, so thinning decides every record's
    # candidates up to its first click on that start's one no-click
    # trajectory: some of those first gaps cross more than 1800 bins too
    assert max(h[0] if len(h) else n for h in ref) > 1800
    stats = {"draw_s": 0.0, "draws": 0, "shared": 0, "rounds": 0}
    idx, _ = _engine._thin(_engine._Segments([ops]), ops, np.arange(64), 6, stats=stats)
    assert _record_hash(idx) == _record_hash(ref)
    assert stats["shared"] > 0


@pytest.mark.parametrize("name, value", [(None, None), ("_PAIR_ROWS", 1), ("_PAIR_ROWS", 3),
                                         ("_PIECE", 7)],
                         ids=["rounds", "rounds_of_1", "rounds_of_3", "pieces_of_7"])
@pytest.mark.parametrize("imp", [None, Imperfections(gamma=0.1, eta=0.65)],
                         ids=["pure", "density"])
def test_shared_pass_draws_the_per_bin_reference_records(emitter, imp, name, value,
                                                         monkeypatch):
    # the matched cascade at its decoding point over 10 000 bins: on Kraus
    # pairs a third of the records never click, and every record's first
    # click is decided on the shared start's trajectory, which spans 39
    # blocks of 256 bins (625 of 16 on superoperators); the records that
    # clicked go on in rounds of 1, 3 or the full budget, from their click
    # states, and the records are the per-bin sampler's
    if name is not None:
        monkeypatch.setattr(_engine, name, value)
    gen = cascade_generators(emitter, two_level_decoder(1.0, 0.0, 1.0), imperfections=imp)
    grid = TimeGrid(0.0, 20.0, 2e-3)
    ref = _reference_records(step_matrices(gen, 0.0, grid), np.arange(64), 5)[0]
    assert sum(len(h) > 0 for h in ref) > 32 and sum(len(h) > 1 for h in ref) > 8
    for engine in ("segment", "step"):
        idx = sample_records(gen, 0.0, grid, 64, seed=5, engine=engine)[0]
        assert _record_hash(idx) == _record_hash(ref)
    # the shared trajectory decides each record's candidates up to and
    # including its first click (all of them when it never clicks), and
    # rounds alone, from the records' initial states, draw the same records
    drawn, candidates = [], _engine._candidates
    monkeypatch.setattr(_engine, "_candidates",
                        lambda *a: drawn.append(candidates(*a)) or drawn[-1])
    ops = step_matrices(gen, 0.0, grid)
    seg, n = _engine._Segments([ops]), grid.n_steps
    stats = {"draw_s": 0.0, "draws": 0, "shared": 0, "rounds": 0}
    idx = _engine._thin(seg, ops, np.arange(64), 5, stats=stats)[0]
    assert _record_hash(idx) == _record_hash(ref)
    flat, _, counts = drawn[-1]
    bins = np.split(flat - np.repeat(np.arange(64) * n, counts), np.cumsum(counts)[:-1])
    shared = sum(int(np.sum(b <= (h[0] if len(h) else n))) for b, h in zip(bins, ref))
    assert stats["shared"] == shared > 0
    idx = _engine._thin(seg, ops, np.arange(64), 5, x=seg.initial(64), stats=stats)[0]
    assert _record_hash(idx) == _record_hash(ref) and stats["shared"] == shared


@pytest.mark.parametrize("case, bin_", [("bright_pair", 0), ("direct", 12)])
@pytest.mark.parametrize("rows", [None, 1])
def test_click_overflow_guard_names_the_same_bin_on_the_shared_trajectory(emitter, case, bin_,
                                                                          rows, monkeypatch):
    # dt = 0.2 with max_step widened: every bin is a candidate of every
    # record.  The pair started in its bright state overflows at bin 0; the
    # direct emitter, driven up from its ground state, at bin 12, which the
    # records that have not clicked by then meet on the shared trajectory.
    # The shared trajectory meets the overflow, and sampling stops at the
    # per-bin sampler's bin with its message
    if rows is not None:
        monkeypatch.setattr(_engine, "_PAIR_ROWS", rows)
    dec = two_level_decoder(1.0, 1.0, 1.0)
    gen = {"bright_pair": lambda: cascade_generators(
               emitter, dec, init=np.kron([1.0, 0.0], dec.initial_state_d).astype(complex)),
           "direct": lambda: cascade_generators(emitter)}[case]()
    found, trajectory = [], _engine._shared_trajectory

    def spy(*args):  # the first overflowing bin of the windows that thinning takes
        found.append(None)
        for w0, p1, click in trajectory(*args):
            if found[-1] is None and (p1 > _engine._P1_MAX).any():
                found[-1] = w0 + int(np.argmax(p1 > _engine._P1_MAX))
            yield w0, p1, click

    monkeypatch.setattr(_engine, "_shared_trajectory", spy)
    _assert_same_overflow(gen, TimeGrid(0.0, 4.0, 0.2), 1, rf"at bin {bin_} ")
    assert found == [bin_, bin_]


def test_shared_pass_runs_on_static_tables_only(clicky_pair, monkeypatch):
    # a static cascade's records share their start: the shared trajectory
    # opens once per chunk.  Per-bin tables, in one window or in several,
    # open none, and neither does a replay
    calls, trajectory = [], _engine._shared_trajectory

    def spy(seg, *args):
        calls.append(seg.static)
        yield from trajectory(seg, *args)

    monkeypatch.setattr(_engine, "_shared_trajectory", spy)
    monkeypatch.setattr(cascade, "_CHUNK_BINS", 1)  # chunks of _CHUNK = 256 records
    grid = TimeGrid(0.0, 2.0, 2e-3)
    idx = sample_records(clicky_pair, 0.0, grid, 300, seed=4)[0]
    assert calls == [True, True]
    replay_records(clicky_pair, 0.0, idx, grid)
    assert calls == [True, True]
    per_bin = _stepped_decay()
    sample_records(per_bin, 0.0, grid, 16, seed=4)
    _window_bins(monkeypatch, per_bin, 64)
    assert len(cascade._tables(per_bin, [0.0], grid, 0.05)[1]) > 1
    sample_records(per_bin, 0.0, grid, 16, seed=4)
    assert calls == [True, True]


def test_fisher_estimate_reports_its_shared_candidates_and_rounds(monkeypatch):
    # the benchmark's MLE cascade (omega = delta = gamma = 1, decoder matched
    # at theta = 1): most candidates lie up to their record's first click
    # and are decided on the shared trajectory.  A per-bin model has none
    gen = cascade_generators(two_level_model(omega=1.0, delta=1.0, gamma=1.0),
                             two_level_decoder(1.0, -1.0, 1.0))
    fi = fisher_from_trajectories(gen, 1.0, TimeGrid(0.0, 20.0, 2e-3), 64, seed=3)
    assert 0.5 * fi.candidates < fi.shared < fi.candidates and fi.rounds > 0
    fp = fisher_from_trajectories(_stepped_decay(), 0.0, TimeGrid(0.0, 4.0, 2e-3), 64, seed=3)
    assert fp.shared == 0.0 and fp.rounds > 0 and fp.candidates > 0.0


def test_thinning_restarts_from_the_last_candidate_of_a_round(monkeypatch):
    # one record, four candidate evaluations per round: a round without a
    # hit hands its last candidate's state to the next round, and a hit on
    # the last candidate ends the round on the click state, from the bin
    # after it.  The no-click map turns the state by one radian per bin and
    # only one of its two modes clicks, so a state taken one bin off clicks
    # with another probability.  Both kinds of round end occur here (read
    # off the candidates and the per-bin sampler's clicks)
    monkeypatch.setattr(_engine, "_PAIR_ROWS", 4)
    n, p = 2000, 0.05
    turn = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    ops = _engine.StepOps(n, 0.1, turn[None] + 0j, np.diag([np.sqrt(p), 0.0])[None] + 0j,
                          np.array([1.0, 0.0], dtype=complex), pure=True)
    seg = _engine._Segments([ops])
    ref = _reference_records(ops, np.arange(16), 5)[0]
    events = {"miss": 0, "hit": 0}
    for i in range(16):
        idx, _ = _engine._thin(seg, ops, np.array([i]), 5)
        assert np.array_equal(idx[0], ref[i])
        u = (np.random.Philox(key=[5, i]).random_raw(n) >> np.uint64(11)) * 2.0 ** -53
        cands = np.flatnonzero(u < p * (1.0 + 1e-9))
        j = 0  # the rounds: four candidates, or up to the first hit
        while j < len(cands):
            group = cands[j:j + 4]
            hits = np.flatnonzero(np.isin(group, ref[i]))
            if len(hits):
                events["hit"] += hits[0] == len(group) - 1 and len(group) > 1
                j += hits[0] + 1
            else:
                events["miss"] += len(group) == 4
                j += len(group)
    assert events["miss"] > 0 and events["hit"] > 0


def _distinct_cases():
    """(cascade, θ values, grid) whose records repeat."""
    c = _cascades()
    three = three_level_model(0.0, 5.0, 1.0, T_plateau=1.0)
    three_grid = TimeGrid(0.0, 4.0, 1e-3)
    return {
        "pure": (c["two_level_decoder"](), THETA_SET, _GRID),
        "density": (c["imperfections"](), THETA_SET, _GRID),
        "per_bin": (c["modulated_jump"](), [0.3], _GRID),
        "per_bin_density": (c["imperfections_build_decoder"](), [0.3], _GRID),
        "three_level": (cascade_generators(three, build_decoder(three, 0.0, three_grid)), [3.0],
                        three_grid),
    }


@pytest.mark.parametrize("case", ["pure", "density", "per_bin", "per_bin_density",
                                  "three_level"])
@pytest.mark.parametrize("kind", ["segment", "step", "score"])
def test_distinct_replay_scatters_the_replay_of_every_record(case, kind):
    # records repeat (dark ones most); on per-bin tables one more has
    # probability zero under a click map emptied at bin 7.  Each distinct
    # record replayed once and its row copied to its repeats is, bit for
    # bit, the replay of every record
    gen, thetas, grid = _distinct_cases()[case]
    records = sample_records(gen, thetas[0], grid, 24, seed=3)[0]
    records += [np.array([], dtype=np.int64), records[0], np.array([7]), np.array([7])]
    assert len({np.asarray(h, dtype=np.int64).tobytes() for h in records}) < len(records)
    if kind == "score":
        thetas = thetas[:1]
    ops = [step_matrices(gen, th, grid) for th in thetas]
    per_bin = len(ops[0].a0) > 1
    for o in ops if per_bin else ():  # no click at bin 7: [7] has probability zero
        o.a1 = np.array(o.a1)
        o.a1[7] = 0.0
    tangent = _scored_tables(gen, thetas[0], grid)[1] if kind == "score" else None
    core = "step" if kind == "step" else "segment"
    got = _run_whole(ops, tangent, core, records)
    seg = _engine._Segments(ops, tangent)
    state = seg.start(len(records))
    (_engine.run_steps if core == "step" else _engine._replay_segments)(
        seg, records, grid.n_steps, state)
    every = seg.result(state)
    assert got.shape == (len(thetas), len(records)) and got.tobytes() == every.tobytes()
    if per_bin and kind != "score":
        assert np.all(got[:, -1] == -np.inf) and np.all(np.isfinite(got[:, :-2]))


@pytest.mark.parametrize("case", ["pure", "density", "stationary_decoder", "direct"])
def test_stacked_theta_tables_match_per_theta_tables(case):
    # a static model's 41-value grid from one stacked table pass, bit for
    # bit the tables of each θ alone
    cascades = {**_cascades(), "direct": lambda: cascade_generators(
        two_level_model(omega=1.0, delta=0.0, gamma=1.0))}
    gen = cascades[{"pure": "two_level_decoder", "density": "imperfections"}.get(case, case)]()
    thetas = 0.3 + np.linspace(-0.2, 0.2, 41)
    stacked, tangent = _theta_tables(gen, list(thetas), _GRID, 0.05)
    assert len(stacked) == 41 and tangent is None
    for th, ops in zip(thetas, stacked):
        one = step_matrices(gen, th, _GRID)
        assert ops.pure is one.pure and ops.a0.shape == one.a0.shape == (1,) + one.a0.shape[1:]
        for a, b in ((ops.a0, one.a0), (ops.a1, one.a1), (ops.x0, one.x0)):
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("model", ["static", "per_bin"])
@pytest.mark.parametrize("pure", [True, False], ids=["kraus", "superoperator"])
def test_apply_renormalizes_as_the_complex_division(model, pure):
    # the float-view product by 1/root is numpy's complex division by the
    # real root, bit for bit, on the state and on its tangent
    rng = np.random.default_rng(4)
    n, d = (1 if model == "static" else 40), (3 if pure else 9)
    rand = lambda *s: rng.normal(size=s) + 1j * rng.normal(size=s)
    ops = [_engine.StepOps(40, 0.1, rand(n, d, d), rand(n, d, d), rand(d), pure)
           for _ in range(2)]
    seg = _engine._Segments(ops, rand(n, d, d))
    x, dx = rand(2, 30, d), rand(2, 30, d)
    sel = np.array([0, 3, 4, 11, 29])
    idx = None if model == "static" else rng.integers(0, n, size=len(sel))
    level = seg.levels[0]
    y = seg.times(x, sel, level[0], idx)
    dy = seg.times(dx, sel, level[0], idx) + seg.times(x, sel, level[2], idx)
    w = seg.weight(y.reshape(-1, d)).reshape(y.shape[:-1])
    r = seg.root(w)[..., None]
    seg.apply(x, sel, level, idx, dx=dx)
    assert x[:, sel].tobytes() == (y / r).tobytes()
    assert dx[:, sel].tobytes() == (dy / r).tobytes()


def _window_bins(monkeypatch, gen, bins, scoring=False):
    """Shrink the table budget so that per-bin runs of ``gen`` take windows
    of ``bins`` bins (a power of two)."""
    monkeypatch.setattr(cascade, "_TABLE_BYTES", bins * cascade._bin_bytes(gen, 1, scoring))


@pytest.mark.parametrize("name, value", [(None, None), ("_PAIR_ROWS", 1), ("_PAIR_ROWS", 3),
                                         ("_PIECE", 7)],
                         ids=["rounds", "rounds_of_1", "rounds_of_3", "pieces_of_7"])
@pytest.mark.parametrize("bins", [8, 64])
@pytest.mark.parametrize("case", ["three_level", "three_level+decoder"])
def test_windowed_runs_draw_the_per_bin_reference_records(emitter, case, bins, name, value,
                                                          monkeypatch):
    # the pulsed emitter walked in windows of 8 or 64 bins: each window
    # draws its bins' values of every record's stream and thins from the
    # records' replayed states, and the records are the per-bin sampler's
    gen, theta, grid = _sampling_case(emitter, case)
    ref = _reference_records(step_matrices(gen, theta, grid), np.arange(64), 5)[0]
    assert sum(len(h) for h in ref) > 32
    if name is not None:
        monkeypatch.setattr(_engine, name, value)
    _window_bins(monkeypatch, gen, bins)
    windows = cascade._tables(gen, [theta], grid, 0.05)[1]
    assert len(windows) == -(-grid.n_steps // bins) and windows[1] == (bins, 2 * bins)
    for engine in ("segment", "step"):
        idx = sample_records(gen, theta, grid, 64, seed=5, engine=engine)[0]
        assert _record_hash(idx) == _record_hash(ref)


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_click_overflow_guard_names_the_same_bin_in_windows(rows, monkeypatch):
    # 8-bin windows: bin 22, the first overflow, lies in the third window,
    # and the records clicked in the first two
    if rows is not None:
        monkeypatch.setattr(_engine, "_PAIR_ROWS", rows)
    gen, grid = _stepped_decay(), TimeGrid(0.0, 4.0, 0.1)
    _window_bins(monkeypatch, gen, 8)
    assert cascade._tables(gen, [0.0], grid, 10.0)[1][2] == (16, 24)
    _assert_same_overflow(gen, grid, 2, r"at bin 22 ")


@pytest.mark.parametrize("bins", [8, 64])
@pytest.mark.parametrize("name", ["three_level_direct", "three_level_build_decoder",
                                  "imperfections_build_decoder", "modulated_jump"])
def test_windowed_replay_and_scores_match_one_window(name, bins, monkeypatch):
    # replayed logL and scores walked window by window: the no-click runs
    # that cross a window edge split into more blocks, which moves them by
    # round-off only
    gen, theta, grid, records = _scored_case(name)
    thetas = [theta - 1e-3, theta + 1e-3]
    score_run = lambda: cascade._run_records(*cascade._tables(gen, [theta], grid, 0.05, True),
                                             "segment", len(records), 0, records)[1]
    monkeypatch.setattr(cascade, "_TABLE_BYTES", 1 << 30)
    one = replay_records(gen, thetas, records, grid), score_run()
    assert len(cascade._tables(gen, [theta], grid, 0.05, True)[1]) == 1
    _window_bins(monkeypatch, gen, bins)
    logl = replay_records(gen, thetas, records, grid)
    _window_bins(monkeypatch, gen, bins, scoring=True)
    scores = score_run()
    assert np.all(np.isfinite(logl)) and np.abs(one[1]).max() > 0.0
    assert np.all(np.abs(logl - one[0]) <= 1e-12 * np.abs(one[0]))
    assert np.all(np.abs(scores - one[1]) <= 1e-12 * np.abs(one[1]).max())


def test_scores_are_exact_zeros_at_the_symmetric_point_in_windows(monkeypatch):
    # gate 5's pulsed three-level setup, on a shorter plateau, in 8-bin
    # windows: the tangent still cancels exactly, with no round-off floor
    monkeypatch.setattr(_engine, "_SCORE_ROUNDOFF", 0.0)
    gen = cascade_generators(three_level_model(0.0, 5.0, 1.0, T_plateau=5.0))
    grid = TimeGrid(0.0, 11.0, 1e-3)
    _window_bins(monkeypatch, gen, 8, scoring=True)
    fi = fisher_from_trajectories(gen, 0.0, grid, 64, theta_step=1e-3, seed=29)
    assert fi.windows == grid.n_steps // 8
    assert fi.mean_clicks > 1.0 and fi.null_point and fi.value == 0.0


def test_fisher_estimate_reports_its_windows_and_table_memory(clicky_pair, monkeypatch):
    # a static model is one window; the decoded three-level cascade is one
    # window of 4000 bins (about 20 MB of tables) at the real budget and 63
    # windows of 64 bins under a shrunk one, holding no more than it
    static = fisher_from_trajectories(clicky_pair, 0.3, _GRID, 8, seed=2)
    assert static.windows == 1 and 0.0 < static.table_mb < 0.01
    make, theta, grid = _scored_cascades()["three_level_build_decoder"]
    gen = make()
    monkeypatch.setattr(cascade, "_TABLE_BYTES", 1 << 30)
    whole = fisher_from_trajectories(gen, theta, grid, 8, seed=2)
    _window_bins(monkeypatch, gen, 64, scoring=True)
    windowed = fisher_from_trajectories(gen, theta, grid, 8, seed=2)
    assert whole.windows == 1 and windowed.windows == 63
    assert windowed.table_mb * 2 ** 20 <= cascade._TABLE_BYTES
    assert whole.table_mb > 50 * windowed.table_mb > 0.0


def test_step_core_replay_builds_no_levels(monkeypatch):
    # the step core reads the per-bin maps alone: its replay of given
    # records builds no level above them in any window; the segment core
    # builds every window's (2048 bins, 12 levels, and 11 over the last 1952)
    gen, theta, grid, records = _scored_case("three_level_build_decoder")
    made, segments = [], _engine._Segments
    monkeypatch.setattr(_engine, "_Segments", lambda *a: made.append(segments(*a)) or made[-1])
    step = replay_records(gen, theta, records, grid, engine_kind="step")
    assert len(made) == 2 and all(len(seg.levels) == 1 for seg in made)
    segment = replay_records(gen, theta, records, grid)
    assert [len(seg.levels) for seg in made[2:]] == [12, 11]
    # the second window's maps and levels are written over the first's
    for level in (0, 1):
        assert np.shares_memory(made[2].levels[level][0], made[3].levels[level][0])
    assert np.all(np.abs(step - segment) <= 1e-11 * np.abs(step))


def test_decoded_fisher_run_holds_one_window_of_tables():
    # the decoded three-level cascade at T_plateau = 20: 13 000 bins of
    # 9 x 9 tables, 65 MB when held at once, walked in windows of a few MB
    sensor = three_level_model(0.0, 5.0, 1.0, T_plateau=20.0)
    grid = TimeGrid(0.0, 26.0, 2e-3)
    gen = cascade_generators(sensor, build_decoder(sensor, 0.0, grid))
    tracemalloc.start()
    try:
        fi = fisher_from_trajectories(gen, 0.0, grid, 16, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fi.windows > 1 and fi.table_mb * 2 ** 20 <= cascade._TABLE_BYTES
    assert peak < 12 * 2 ** 20


def _tops(n, seed):
    """Per-bin thinning limits of n bins: click bounds up to 0.2, the
    bound 0 (limit 0) and a bin above _P1_MAX (limit 2^64 - 1)."""
    rng = np.random.default_rng(seed)
    top = (rng.uniform(0.0, 0.2, n) * 2.0 ** 64).astype(np.uint64)
    top[n // 3], top[n // 2] = 0, 2 ** 64 - 1
    return top


@pytest.mark.parametrize("n, nb, lo, piece", [
    (300, 17, 0, None),  # whole records per piece
    (300, 17, 0, 7),  # each record in pieces of 7 draws
    (300, 1, 0, None),  # a single record
    (41, 5, 64, None),  # an odd grid from bin 64
    (41, 5, 64, 8),
], ids=["whole_records", "pieces_of_7", "one_record", "lo_64", "lo_64_pieces_of_8"])
def test_split_candidates_are_the_serial_candidates(n, nb, lo, piece, monkeypatch):
    # one re-keyed Philox drawing the records in pieces (whole records at
    # the default _PIECE, parts of one at 7 or 8) against a fresh Philox per
    # record drawing all its bins at once: the same positions, dtype, raw
    # draws and counts
    top, indices = _tops(n, nb), np.arange(3, 3 + nb)
    raws = [np.random.Philox(key=[12, i], counter=[lo >> 2, 0, 0, 0]).random_raw(n)
            for i in indices]
    hits = [np.flatnonzero(r <= top) for r in raws]
    ref = (np.concatenate([h + r * n for r, h in enumerate(hits)]).astype(np.int32),
           np.concatenate([r[h] for r, h in zip(raws, hits)]),
           np.array([len(h) for h in hits], dtype=np.int64))
    # raw draws of u >= 0.2: bins of limit 2^64 - 1
    assert len(ref[0]) > nb and ref[1].max() * 2.0 ** -64 >= 0.2
    for size in filter(None, (_engine._PIECE, piece)):
        monkeypatch.setattr(_engine, "_PIECE", size)
        drawn = _engine._candidates(top, indices, 12, lo)
        for a, b in zip(ref, drawn):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_one_record_fisher_estimate_has_nan_errors(clicky_pair):
    # one record has no spread: its errors are NaN, not a confident 0
    fi = fisher_from_trajectories(clicky_pair, 0.3, _GRID, 1, seed=3)
    assert np.isfinite(fi.value) and fi.n_traj == 1
    assert np.isnan(fi.std_error) and np.isnan(fi.mean_score_se)
    two = fisher_from_trajectories(clicky_pair, 0.3, _GRID, 2, seed=3)
    assert np.isfinite(two.std_error) and np.isfinite(two.mean_score_se)


# the fig4 operating point (omega = delta = gamma = 1, decoder matched at
# theta = 1), where records click, and the sweep's loss/efficiency settings
_FIG4_SENSOR = two_level_model(omega=1.0, delta=1.0, gamma=1.0)
_FIG4_DECODER = two_level_decoder(1.0, -1.0, 1.0)
_SETTINGS = [(eta, gam) for eta in (1.0, 0.65, 0.3) for gam in (0.0, 0.1)]


def _fig4_cascades(settings=_SETTINGS, sensor=_FIG4_SENSOR):
    """The ideal cascade, then one per (eta, gamma) setting."""
    return [cascade_generators(sensor, _FIG4_DECODER)] + [
        cascade_generators(sensor, _FIG4_DECODER, imperfections=Imperfections(gamma=g, eta=e))
        for e, g in settings]


def _spy_runs(monkeypatch):
    """A list that gets the (records, scores, candidates) of every record
    run from now on."""
    runs, run = [], cascade._run_records
    monkeypatch.setattr(cascade, "_run_records", lambda *a, **k: runs.append(run(*a, **k))
                        or runs[-1])
    return runs


_UNTIMED = {"seconds", "table_s", "sample_s", "draw_s", "score_s", "draws"}


def _untimed(fi):
    """A Fisher estimate's fields but its timers and draw count."""
    return {k: v for k, v in vars(fi).items() if k not in _UNTIMED}


def _assert_sweep_is_separate_runs(gens, theta, grid, n, seed, monkeypatch):
    """Each run of the sweep of ``gens`` gives the records, scores and
    estimate of its separate run, and the records and logL of a separate
    sampling run; returns the sweep's estimates."""
    runs = _spy_runs(monkeypatch)
    swept = cascade.fisher_sweep(gens, theta, grid, n, seed)
    assert len(runs) == len(swept) == len(gens)
    for gen, fi, (idx, scores, cands) in zip(gens, swept, list(runs)):
        alone = fisher_from_trajectories(gen, theta, grid, n, seed=seed)
        assert _record_hash(runs[-1][0]) == _record_hash(idx)
        assert runs[-1][1].tobytes() == scores.tobytes() and runs[-1][2] == cands
        assert _untimed(alone) == _untimed(fi) and alone.draws == n * grid.n_steps
        ref_idx, ref_logl, _ = sample_records(gen, theta, grid, n, seed=seed)
        assert _record_hash(ref_idx) == _record_hash(idx)
        assert replay_records(gen, theta, idx, grid).tobytes() == ref_logl.tobytes()
    return swept


def test_sweep_runs_are_their_separate_runs_bitwise(monkeypatch):
    # the ideal cascade and every (eta, gamma) of {1, 0.65, 0.3} x {0, 0.1}
    # at one seed: the ideal run draws each record's stream at the largest
    # bound, every other run keeps its own candidates of that draw
    grid = TimeGrid(0.0, 4.0, 2e-3)
    swept = _assert_sweep_is_separate_runs(_fig4_cascades(), 1.0, grid, 48, 5, monkeypatch)
    assert [fi.draws for fi in swept] == [48 * grid.n_steps] + [0] * len(_SETTINGS)
    assert all(fi.mean_clicks > 0.0 and fi.value > 0.0 for fi in swept)
    # the ideal and unit-efficiency runs keep every candidate, eta = 0.3 about 0.3 of them
    assert swept[1].candidates == swept[0].candidates > 2.0 * swept[-1].candidates


def test_sweep_run_above_the_shared_bound_draws_its_own(monkeypatch):
    # a per-bin cascade (the decay rate modulated up to 1.5) is not part of
    # the shared bound: at eta = 1 its bound exceeds it and it draws its own;
    # at eta = 0.3 it lies below it and keeps its candidates of the draw,
    # unless it walks the grid in several windows of tables
    modulated = modulated_jump_sensor()
    gens = (_fig4_cascades([(0.65, 0.0)], sensor=two_level_model(1.0, 0.0, 1.0))
            + _fig4_cascades([(0.3, 0.0)], sensor=modulated))
    assert [g.time_dependent for g in gens] == [False, False, True, True]
    grid = TimeGrid(0.0, 2.0, 2e-3)
    assert len(cascade._tables(gens[3], [0.3], grid, 0.05, True)[1]) > 1
    n = 32 * grid.n_steps
    swept = _assert_sweep_is_separate_runs(gens, 0.3, grid, 32, 9, monkeypatch)
    assert [fi.draws for fi in swept] == [n, 0, n, n] and swept[3].windows > 1
    monkeypatch.setattr(cascade, "_TABLE_BYTES", 1 << 30)  # one window each
    swept = _assert_sweep_is_separate_runs(gens, 0.3, grid, 32, 9, monkeypatch)
    assert [fi.draws for fi in swept] == [n, 0, n, 0] and swept[3].windows == 1


def test_thinning_ignores_a_superset_below_its_bound():
    # a superset drawn at a lower top than the run's own in one bin is not
    # one: thinning draws its own, and the records are the reference's
    gen = cascade_generators(_FIG4_SENSOR, _FIG4_DECODER)
    ops = step_matrices(gen, 1.0, _GRID)
    top, n = _engine._top(ops), _GRID.n_steps
    low = top.copy()
    low[n // 2] -= np.uint64(1)
    ref = _reference_records(ops, np.arange(32), 4)[0]
    for drawn, draws in ((low, 32 * n), (np.maximum(top, top[:1] << np.uint64(1)), 0)):
        superset = (drawn, *_engine._candidates(drawn, np.arange(32), 4, 0)[:2])
        stats = {"draw_s": 0.0, "draws": 0, "shared": 0, "rounds": 0}
        idx = _engine._thin(_engine._Segments([ops]), ops, np.arange(32), 4, stats=stats,
                            drawn=superset)[0]
        assert _record_hash(idx) == _record_hash(ref) and stats["draws"] == draws


def test_chunked_sweep_shares_each_chunk_and_needs_records(monkeypatch):
    # 20 records in chunks of 8: each chunk is drawn once for the sweep
    monkeypatch.setattr(cascade, "_CHUNK", 8)
    monkeypatch.setattr(cascade, "_CHUNK_BINS", 8 * _GRID.n_steps)
    drawn, candidates = [], _engine._candidates
    monkeypatch.setattr(_engine, "_candidates", lambda *a: drawn.append(a[1]) or candidates(*a))
    swept = _assert_sweep_is_separate_runs(_fig4_cascades(_SETTINGS[2:4]), 1.0, _GRID, 20, 3,
                                           monkeypatch)
    assert all(fi.chunks == 3 for fi in swept)
    assert [fi.draws for fi in swept] == [20 * _GRID.n_steps, 0, 0]
    # the sweep's three chunk draws, then each separate run's
    assert [len(a) for a in drawn[:3]] == [8, 8, 4]
    with pytest.raises(CmsenseError, match="n_traj = 0"):
        cascade.fisher_sweep(_fig4_cascades(_SETTINGS[2:4]), 1.0, _GRID, 0, 3)
    assert cascade.fisher_sweep([], 1.0, _GRID, 8, 3) == []
    # a record run with a shared store and no records is empty
    store = cascade._shared_draws(np.broadcast_to(np.uint64(2 ** 60), (_GRID.n_steps,)), 3)
    tables = cascade._tables(_fig4_cascades([])[0], [1.0], _GRID, 0.05, True)
    idx, scores, cands = cascade._run_records(*tables, "segment", 0, 3, shared=store)
    assert idx == [] and scores.shape == (1, 0) and cands == 0
