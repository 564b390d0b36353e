import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import run_reference
from briberace import markov
from briberace.markov import (
    AbsorbingChain,
    ChainError,
    analyze,
    catchup_prob,
    extend_fork_power,
    solve_each,
    solve_race,
    solve_starts,
    tail_depth,
    _solve,
    _solve_cores,
)

EPS = np.finfo(float).eps


def chain_const(p, h):
    return AbsorbingChain(np.full(h, p))


def walk(fork_power):
    """I - Q of the race chain, entry by entry: from state i the walk steps
    down (toward success, out of state 0) with probability fork_power[i] and
    up (toward failure, out of the top state) otherwise."""
    h = len(fork_power)
    a = np.eye(h)
    for i in range(h):
        if i > 0:
            a[i, i - 1] = -fork_power[i]
        if i < h - 1:
            a[i, i + 1] = -(1.0 - fork_power[i])
    return a


def test_single_state_canonical_form():
    # h = 1: Q = [[0]] and N = [[1]], so B = N G is G's one row
    assert analyze(chain_const(0.3, 1)).B.tolist() == [[0.3, 0.7]]


def test_tridiagonal_structure_h7():
    for p in (0.2, 0.3):
        dense = analyze(chain_const(p, 7))
        assert np.array_equal(dense.N, np.linalg.solve(walk(np.full(7, p)), np.eye(7)))
        G = np.zeros((7, 2))
        G[0, 0], G[6, 1] = p, 1.0 - p
        assert np.array_equal(dense.B, dense.N @ G)


def test_fundamental_matrix_identity_case():
    assert analyze(chain_const(0.3, 1)).N.tolist() == [[1.0]]


def test_fundamental_matrix_symmetric_two_state():
    N = analyze(chain_const(0.5, 2)).N
    expected = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
    assert np.max(np.abs(N - expected)) < 1e-12


def test_expected_steps_from_n():
    assert analyze(chain_const(0.3, 1)).e.tolist() == [1.0]
    dense = analyze(chain_const(0.5, 2))
    assert np.array_equal(dense.e, dense.N @ np.ones(2))
    assert np.allclose(dense.e, [2.0, 2.0], atol=1e-12)


def test_absorption_probs_rows_sum_to_one():
    for p in (0.2, 0.3, 0.47):
        B = analyze(chain_const(p, 7)).B
        assert np.allclose(B.sum(axis=1), 1.0, atol=1e-6)


def test_absorption_prob_matches_ruin_closed_form():
    # independent oracle: closed-form hitting probability of a biased walk
    # absorbed at -1 and 7, starting from 6, with step-down probability 0.3
    r = 0.3 / 0.7
    closed = (r**7 - r**8) / (1 - r**8)
    B = analyze(chain_const(0.3, 7)).B
    assert B[6, 0] == pytest.approx(closed, rel=1e-12)
    assert B[6, 0] == pytest.approx(0.00152, abs=5e-6)


def test_symmetric_single_state_is_fair_coin():
    B = analyze(chain_const(0.5, 1)).B
    assert np.allclose(B[0], [0.5, 0.5], atol=1e-12)


def test_degenerate_fork_power_rejected():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ChainError):
            AbsorbingChain(np.array([0.3, bad, 0.4]))


def test_extended_tail_approximates_open_race():
    # deep wall: success from the last bribed state equals the catch-up limit
    vec = extend_fork_power(np.full(7, 0.3), 0.3)
    chain = AbsorbingChain(vec)
    B = analyze(chain).B
    assert B[6, 0] == pytest.approx(catchup_prob(0.3, 0.7, 6), rel=1e-10)


def test_catchup_examples():
    assert catchup_prob(0.3, 0.7, 6) == pytest.approx((3 / 7) ** 7, rel=1e-15)
    assert catchup_prob(0.5, 0.5, 123) == 1.0
    assert catchup_prob(0.6, 0.4, 2) == 1.0
    assert catchup_prob(0.2, 0.8, 6) == pytest.approx(0.25**7, rel=1e-15)
    assert catchup_prob(0.2, 0.8, 6) == pytest.approx(6.10e-5, abs=5e-7)


def test_solver_residual_small_on_random_chains():
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = int(rng.integers(1, 12))
        chain = AbsorbingChain(rng.uniform(0.05, 0.95, size=h))
        dense = analyze(chain)
        residual = np.max(np.abs(walk(chain.fork_power) @ dense.N - np.eye(h)))
        assert residual < 1e-8
        assert np.all(dense.N >= -1e-12)
        assert np.all(dense.e >= 1.0 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(min_value=2, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
    bump=st.floats(min_value=0.01, max_value=0.2),
)
def test_success_monotone_in_fork_power(h, seed, bump):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.05, 0.7, size=h)
    i = int(rng.integers(0, h))
    start = int(rng.integers(0, h))
    lifted = base.copy()
    lifted[i] = min(lifted[i] + bump, 0.95)
    b0 = analyze(AbsorbingChain(base)).B[start, 0]
    b1 = analyze(AbsorbingChain(lifted)).B[start, 0]
    assert b1 >= b0 - 1e-12


# ---------------------------------------------------------------------------
# the tridiagonal hot path against the dense reference

def solve_chain(fork_power, start):
    """solve_race's body on a whole chain, its last power taken as the tail's:
    any chain, with runs of any length, not only the tails tail_depth gives."""
    return _solve(fork_power.tolist(), float(fork_power[-1]), fork_power.size, (start,))[0]


def test_solve_race_small_cases():
    one = solve_chain(np.full(1, 0.3), 0)
    assert one.success.tolist() == [0.3]
    assert one.visits.tolist() == [1.0] and one.steps == 1.0
    two = solve_chain(np.full(2, 0.5), 1)
    assert np.max(np.abs(two.visits - [2 / 3, 4 / 3])) < 1e-15
    assert two.steps == pytest.approx(2.0, rel=1e-15)
    r = 0.3 / 0.7
    closed = (r**7 - r**8) / (1 - r**8)
    assert solve_chain(np.full(7, 0.3), 6).success[6] == pytest.approx(closed, rel=1e-12)


def test_wall_sets_the_numbers_at_half_power():
    # the attacker alone at 0.5 on C = 2 plus the 512-state tail: from state
    # 2 the walk is a fair gambler's ruin 3 steps from success and 513 from
    # the wall, not the open-ended race's sure success in unbounded time
    chain = AbsorbingChain(extend_fork_power(np.full(3, 0.5), 0.5))
    assert chain.h == 515
    dense, sol = analyze(chain), solve_race(np.full(3, 0.5), 0.5, 2)
    for success, steps in ((dense.B[2, 0], dense.e[2]), (sol.success[2], sol.steps)):
        assert success == pytest.approx(1 - 3 / 516, rel=1e-12)
        assert steps == pytest.approx(3 * 513, rel=1e-12)
    assert round(sol.success[2], 5) == 0.99419


def test_solve_race_results_are_read_only():
    sol = solve_race(np.full(7, 0.3), 0.3, 2)
    for a in (sol.success, sol.visits):
        with pytest.raises(ValueError):
            a[0] = 0.0


ATTACKER_POWERS = st.one_of(st.floats(min_value=0.01, max_value=0.99),
                            st.sampled_from([0.5, 0.55, 1 - 1e-12]))


def fork_powers(mu):
    return st.one_of(st.floats(min_value=mu, max_value=1 - 1e-12), st.just(1 - 1e-12))


@st.composite
def race_chains(draw):
    """Chains shaped like the ones strategies solve: a bribed core whose fork
    powers lie between the attacker's power and 1 - 1e-12, then the attacker
    alone on the tail. The top states of the core may hold the attacker's
    power too, so the trailing run of equal powers that solve_race folds can
    start inside the core, and at or below any start state. Run lengths 1, 2
    and 512, and run powers 0.5 and 1 - 1e-12 (where r^d overflows), are
    drawn on purpose."""
    mu = draw(ATTACKER_POWERS)
    core = draw(st.lists(fork_powers(mu), max_size=40))
    unbribed = draw(st.integers(min_value=0, max_value=len(core)))
    core[len(core) - unbribed:] = [mu] * unbribed
    tail = draw(st.one_of(st.integers(min_value=0 if core else 1, max_value=512),
                          st.sampled_from([1, 2, 512])))
    return np.concatenate([core, np.full(tail, mu)])


@settings(max_examples=30, deadline=None)
@given(fork_power=race_chains())
def test_solve_race_matches_dense_reference(fork_power):
    """B[:, 0], N[start, :] and e[start] agree with analyze from every start,
    to 1e-12 relative (max-norm over each vector) or eps times the
    condition number of I - Q, whichever is larger. That number is
    2 * max(e) in the infinity norm; past about 4.5e3 the dense reference
    itself is no closer than that to a 60-digit solve."""
    chain = AbsorbingChain(fork_power)
    dense = analyze(chain)
    tol = max(1e-12, EPS * 2.0 * dense.e.max())
    b = dense.B[:, 0]
    for start in range(chain.h):
        sol = solve_chain(fork_power, start)
        assert np.max(np.abs(sol.success - b)) <= tol * np.max(np.abs(b))
        row = dense.N[start, :]
        assert np.max(np.abs(sol.visits - row)) <= tol * np.max(np.abs(row))
        assert abs(sol.steps - dense.e[start]) <= tol * dense.e[start]


def test_both_solvers_reject_the_same_bad_chains():
    malformed = ([], [[0.3, 0.4]], [0.3, 0.0, 0.4], [0.3, 1.0], [-0.1], [1.1],
                 [0.3, float("nan")], [float("inf")])
    for bad in malformed:
        with pytest.raises(ChainError):
            analyze(AbsorbingChain(np.array(bad, dtype=float)))
        with pytest.raises(ChainError):
            solve_race(np.array(bad, dtype=float), 0.3, 0)
    # a valley the walk almost never leaves: N ~ 1e10, so both residual
    # checks trip rather than return visit counts accurate to a few digits
    trap = np.array([0.05] * 8 + [0.95] * 8)
    with pytest.raises(ChainError):
        analyze(AbsorbingChain(trap))
    for start in (0, 8, 15, 15 + tail_depth(0.95)):
        with pytest.raises(ChainError):
            solve_race(trap, 0.95, start)
    # eleven states at 0.03125 under a 512-state tail at 0.55, which comes
    # back with probability 1.0 in floats: a sweep through the tail's first
    # state meets a pivot of exactly 0.0, a refusal and not a traceback
    valley = np.full(11, 0.03125)
    with pytest.raises(ChainError):
        analyze(AbsorbingChain(extend_fork_power(valley, 0.55)))
    for start in (0, 11, 100):
        with pytest.raises(ChainError):
            solve_race(valley, 0.55, start)


def test_solve_core_rejects_what_the_chain_rejects():
    """solve_race on a core refuses the cores and tail powers AbsorbingChain
    refuses as fork powers, and starts outside extend_fork_power(core, mu)."""
    for bad in ([], [[0.3, 0.4]], [0.3, 0.0, 0.4], [0.3, 1.0], [-0.1], [1.1],
                [0.3, float("nan")], [float("inf")]):
        with pytest.raises(ChainError):
            solve_race(np.array(bad, dtype=float), 0.3, 0)
    for mu in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ChainError):
            solve_race(np.array([0.4, 0.5]), mu, 0)
    h = 2 + tail_depth(0.3)
    assert AbsorbingChain(extend_fork_power(np.array([0.4, 0.5]), 0.3)).h == h
    solve_race(np.array([0.4, 0.5]), 0.3, h - 1)
    for start in (-1, h):
        with pytest.raises(ChainError):
            solve_race(np.array([0.4, 0.5]), 0.3, start)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_starts_is_solve_race_start_by_start(data):
    """solve_starts gives each start solve_race's success column, visit row
    and step count, bit for bit, whatever the order and repeats of the
    starts and wherever their trim points fall: cores whose top states hold
    mu, and starts inside the core, above its last change of power and in
    the tail. Where solve_race refuses a start, solve_starts refuses."""
    mu = data.draw(ATTACKER_POWERS)
    core = data.draw(st.lists(fork_powers(mu), min_size=1, max_size=12))
    unbribed = data.draw(st.integers(min_value=0, max_value=len(core)))
    core[len(core) - unbribed:] = [mu] * unbribed
    core = np.array(core)
    h = core.size + tail_depth(mu)
    starts = data.draw(st.lists(st.one_of(st.integers(0, core.size + 1), st.integers(0, h - 1)),
                                min_size=1, max_size=6))
    try:
        want = [solve_race(core, mu, start) for start in starts]
    except ChainError:
        with pytest.raises(ChainError):
            solve_starts(core, mu, starts)
        return
    got = solve_starts(core, mu, starts)
    assert len(got) == len(starts)
    for g, w in zip(got, want):
        assert g.success.tobytes() == w.success.tobytes()
        assert g.visits.tobytes() == w.visits.tobytes()
        assert g.steps.hex() == w.steps.hex()


def test_solve_starts_checks_every_start_first(monkeypatch):
    core = np.array([0.4, 0.5])
    h = core.size + tail_depth(0.3)
    monkeypatch.setattr(markov, "_columns", None)  # any solve fails with TypeError
    for starts in ([0, h], [-1, 0], [h - 1, h]):
        with pytest.raises(ChainError):
            solve_starts(core, 0.3, starts)
    assert solve_starts(core, 0.3, []) == []


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_each_is_solve_race_row_by_row(data):
    """solve_each gives row k of the table solve_race's success column,
    visit row and step count from starts[k], bit for bit, whatever the order
    and repeats of the starts: rows that hold one power up to their start
    and mu above it (a crb2 start sweep's chains), capped rows (every state
    at 1 - 1e-12, as an attacker within 1e-12 of the whole network is) and
    race cores of 1-13 states, with attacker powers 0.5, 0.55 and 0.6 (the
    512-state tail) drawn on purpose and starts in the core and the tail.
    Where solve_race refuses a row, solve_each refuses the table."""
    mu = data.draw(st.one_of(ATTACKER_POWERS, st.sampled_from([0.5, 0.55, 0.6])))
    length = data.draw(st.integers(min_value=1, max_value=13))
    h = length + tail_depth(mu)
    starts = data.draw(st.lists(st.one_of(st.integers(0, length - 1), st.integers(0, h - 1)),
                                min_size=1, max_size=8))
    states = np.arange(length)

    def row(start):
        kind = data.draw(st.sampled_from(["prefix", "capped", "core"]))
        if kind == "prefix":
            power = data.draw(st.one_of(fork_powers(mu), st.just(mu), st.floats(0.01, 0.99)))
            return np.where(states <= start, power, mu)
        if kind == "capped":
            return np.full(length, 1 - 1e-12)
        return np.array(data.draw(st.lists(fork_powers(mu), min_size=length, max_size=length)))

    cores = np.array([row(start) for start in starts])
    try:
        want = [solve_race(core, mu, start) for core, start in zip(cores, starts)]
    except ChainError:
        with pytest.raises(ChainError):
            solve_each(cores, mu, starts)
        return
    got = solve_each(cores, mu, starts)
    assert len(got) == len(starts)
    for g, w in zip(got, want):
        assert g.success.tobytes() == w.success.tobytes()
        assert g.visits.tobytes() == w.visits.tobytes()
        assert g.steps.hex() == w.steps.hex()
        assert not (g.success.flags.writeable or g.visits.flags.writeable)


def test_solve_each_checks_everything_first(monkeypatch):
    # solve_each refuses, before any solve, what solve_race refuses of a row
    # (NaN, a power outside (0, 1), a bad mu, a start outside the chain), a
    # ragged or empty table, and a table with more or fewer rows than
    # starts; a malformed table or mu gets _solve_cores's message
    good, nan, h = [0.4, 0.5, 0.3], float("nan"), 3 + tail_depth(0.3)
    malformed = [([good, [0.4, 0.5]], 0.3), ([good, [0.4, nan, 0.3]], 0.3),
                 ([good, [0.4, 0.0, 0.3]], 0.3), ([good, [1.0, 0.5, 0.3]], 0.3),
                 ([good, [0.4, 0.5, -0.1]], 0.3), ([good, good], 0.0), ([good, good], 1.0),
                 ([good, good], nan), ([[], []], 0.3)]
    messages = []
    for cores, mu in malformed:
        with pytest.raises(ChainError) as exc:
            _solve_cores(cores, mu, 0, [True, True])
        messages.append(str(exc.value))
    assert len(solve_each([good, good], 0.3, [0, h - 1])) == 2
    monkeypatch.setattr(markov, "_columns", None)  # any solve fails with TypeError
    monkeypatch.setattr(markov, "_run", None)
    for (cores, mu), message in zip(malformed, messages):
        with pytest.raises(ChainError) as exc:
            solve_each(cores, mu, [0, 1])
        assert str(exc.value) == message
    for cores, starts in (([good, good], [0, h]), ([good, good], [-1, 0]),
                          ([good, good], [0]), ([good], [0, 1]), ([], [])):
        with pytest.raises(ChainError):
            solve_each(cores, 0.3, starts)


@st.composite
def race_cores(draw):
    """(cores, mu, full) as the gvc search passes them to _solve_cores: one
    to four bribed cores of race_chains, of one length, not empty, with C = 1
    (two-state cores) drawn on purpose; their tails are tail_depth(mu) deep.
    Each core's top states may hold mu, so the run can start inside the core
    and a batch mixes trim points. ``full`` flags the cores to solve in
    full."""
    mu = draw(ATTACKER_POWERS)
    size = draw(st.one_of(st.integers(min_value=1, max_value=40), st.just(2)))
    width = draw(st.integers(min_value=1, max_value=4))
    cores = []
    for _ in range(width):
        core = draw(st.lists(fork_powers(mu), min_size=size, max_size=size))
        unbribed = draw(st.integers(min_value=0, max_value=size))
        core[size - unbribed:] = [mu] * unbribed
        cores.append(tuple(core))
    full = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    return cores, mu, full


@settings(max_examples=10, deadline=None)
@given(batch=race_cores())
def test_batch_solve_is_solve_race_bit_for_bit(batch):
    """From every start state, _solve_cores gives each core solve_race's
    success column, and each core flagged full its visit row, bit for bit
    (the other rows are NaN). A batch, and a batch of one, refuses exactly
    when solve_race refuses one of its cores, except where only the start
    row of N trips on a core that is not flagged full."""
    cores, mu, full = batch
    for start in range(len(cores[0]) + tail_depth(mu)):
        want, refused = [], False
        for core, flag in zip(cores, full):
            try:
                want.append(solve_race(np.array(core), mu, start))
            except ChainError as exc:
                want.append(None)
                trips = flag or "start row" not in str(exc)
                refused = refused or trips
                if trips:
                    with pytest.raises(ChainError):
                        _solve_cores([core], mu, start, [flag])
                else:
                    _solve_cores([core], mu, start, [flag])
        if refused:
            with pytest.raises(ChainError):
                _solve_cores(cores, mu, start, full)
            continue
        success, visits = _solve_cores(cores, mu, start, full)
        for k, (sol, flag) in enumerate(zip(want, full)):
            assert flag or np.isnan(visits[k]).all()
            if sol is None:  # only the start row of N tripped
                continue
            assert success[k].tobytes() == sol.success.tobytes()
            if flag:
                assert visits[k].tobytes() == sol.visits.tobytes()


def test_batch_solve_rejects_what_solve_race_rejects():
    good, nan = (0.4, 0.5), float("nan")
    for bad in ([], [[0.3, 0.4]], [0.3, 0.0, 0.4], [0.3, 1.0], [-0.1], [1.1],
                [0.3, nan], [float("inf")]):
        for flag in (False, True):
            with pytest.raises(ChainError):
                _solve_cores([bad], 0.3, 0, [flag])
    # one malformed core refuses the batch, whichever kind it is solved for
    for bad in ((0.3, 0.0), (0.3, 1.0), (-0.1, 0.4), (1.1, 0.4), (0.3, nan), (0.4,)):
        for flag in (False, True):
            with pytest.raises(ChainError):
                _solve_cores([good, bad, good], 0.3, 0, [True, flag, False])
    for mu in (0.0, 1.0, -0.1, 1.1, nan):
        with pytest.raises(ChainError):
            _solve_cores([good, good], mu, 0, [False, True])
    h = 2 + tail_depth(0.3)
    success, visits = _solve_cores([good, good], 0.3, h - 1, [False, True])
    assert success.shape == visits.shape == (2, h)
    for start in (-1, h):
        with pytest.raises(ChainError):
            _solve_cores([good, good], 0.3, start, [False, True])


def test_trap_valley_trips_only_the_visit_row_below_its_top():
    # solve_race refuses the trap valley from every start. From start 0 the
    # sweep stops below the valley's top (the run of 0.95 folds from state
    # 8): the success column checks out to about 1e-16 and only the start row
    # of N (N ~ 1e10) trips, so a batch accepts it when not asked for that
    # row. From state 8 up the sweep crosses the top and the row sums miss 1
    # by about 1.6e-6: every entry refuses
    trap = np.array([0.05] * 8 + [0.95] * 8)
    with pytest.raises(ChainError, match="residual .* of the start row of N"):
        solve_race(trap, 0.95, 0)
    with pytest.raises(ChainError, match="residual .* of the start row of N"):
        _solve_cores([trap], 0.95, 0, [True])
    success, visits = _solve_cores([trap], 0.95, 0, [False])
    assert np.isnan(visits).all()
    s, p = success[0].tolist(), trap.tolist()
    residuals = [abs(s[0] - p[0] - (1 - p[0]) * s[1])] + [
        abs(s[i] - p[i] * s[i - 1] - (1 - p[i]) * s[i + 1]) for i in range(1, 15)
    ]
    assert max(residuals) < 1e-15
    for start in (8, 15, 15 + tail_depth(0.95)):
        with pytest.raises(ChainError, match="sum to 1"):
            solve_race(trap, 0.95, start)
        for flag in (False, True):
            with pytest.raises(ChainError, match="sum to 1"):
                _solve_cores([trap], 0.95, start, [flag])


def run_fields(run):
    """Every field of a ``markov._Run``, floats as hex and arrays as their
    dtype, shape, bytes and writeable flag, for comparisons bit for bit."""
    def bits(value):
        if isinstance(value, float):
            assert type(value) is float
            return value.hex()
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes(), value.flags.writeable
        return tuple(bits(v) for v in value)
    return {f.name: bits(getattr(run, f.name)) for f in dataclasses.fields(run)}


RUN_POWERS = st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                 exclude_max=True),
                       st.just(0.5),
                       st.floats(min_value=0.5, max_value=0.6, exclude_min=True))


@settings(max_examples=60, deadline=None)
@given(power=RUN_POWERS,
       lengths=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=4))
def test_run_is_the_reference_run_bit_for_bit(power, lengths):
    """_run reads a per-power forward sweep that grows on demand, so a run
    must not depend on what the sweep already holds: every field equals the
    reference's (the whole elimination per run) bit for bit, with the sweep
    grown short-then-long, long-then-short, and rebuilt after cache_clear."""
    want = {length: run_fields(run_reference.run(power, length)) for length in lengths}
    for order in (sorted(lengths), sorted(lengths, reverse=True)):
        markov._run.cache_clear()
        markov._forward.cache_clear()
        for length in order:
            assert run_fields(markov._run(power, length)) == want[length]
    # the sweep now holds the longest run; a fresh sweep gives the same bits
    markov._forward.cache_clear()
    for length in lengths:
        assert run_fields(markov._run.__wrapped__(power, length)) == want[length]
