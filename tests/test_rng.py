import numpy as np
import pytest

from finset.partition import ValidationError
from finset.rng import (RngStream, _stream_rows, _Streams, _uniform_runs, gammas, normals,
                        uniform_rows)

# Frozen from the pinned SplitMix64 stream; any generator change must be
# deliberate since it invalidates every golden vector in the suite.
GOLDEN_SEED42 = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
    0.03803016854024621,
]


def test_golden_sequence():
    rng = RngStream(42)
    assert [rng.next_uniform() for _ in range(5)] == GOLDEN_SEED42


def test_same_seed_same_sequence():
    a, b = RngStream(123), RngStream(123)
    assert [a.next_uniform() for _ in range(100)] == [
        b.next_uniform() for _ in range(100)
    ]


def test_scalar_and_vector_draws_agree():
    a, b = RngStream(7), RngStream(7)
    scalars = [a.next_uniform() for _ in range(257)]
    assert list(b.next_uniforms(257)) == scalars


def test_vector_draws_continue_the_stream():
    a, b = RngStream(9), RngStream(9)
    a.next_uniforms(10)
    [b.next_uniform() for _ in range(10)]
    assert a.next_uniform() == b.next_uniform()


def test_range_half_open():
    u = RngStream(0).next_uniforms(10000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_draw_counter():
    rng = RngStream(1)
    rng.next_uniform()
    rng.next_uniforms(41)
    assert rng.draws == 42


def test_spawn_deterministic_and_distinct():
    a = RngStream(5).spawn(3)
    b = RngStream(5).spawn(3)
    c = RngStream(5).spawn(4)
    assert a.seed == b.seed
    assert a.seed != c.seed
    assert a.next_uniform() == b.next_uniform()


def test_spawn_does_not_consume_parent():
    rng = RngStream(5)
    rng.spawn(0)
    assert rng.draws == 0


def test_normal_moments():
    x = normals(RngStream(3), 200_000)
    assert x.mean() == pytest.approx(0.0, abs=0.01)
    assert x.var() == pytest.approx(1.0, rel=0.02)


def test_normals_odd_size():
    assert normals(RngStream(3), 7).shape == (7,)


def test_normals_take_one_box_muller_batch():
    rng = RngStream(5)
    x = normals(rng, 7)
    assert rng.draws == 8
    u = RngStream(5).next_uniforms(8)
    r = np.sqrt(-2.0 * np.log1p(-u[:4]))
    theta = 2.0 * np.pi * u[4:]
    assert np.array_equal(x, np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:7])


@pytest.mark.parametrize("draw", [
    lambda rng: normals(rng, 0),
    lambda rng: gammas(rng, 3, 2, 0),
    lambda rng: gammas(rng, 2.5, 1, 0),
], ids=["normals", "gammas integer shape", "gammas fractional shape"])
def test_zero_size_draws_nothing(draw):
    rng = RngStream(1)
    x = draw(rng)
    assert x.dtype == np.float64 and x.shape == (0,)
    assert rng.draws == 0


@pytest.mark.parametrize("draw", [
    lambda rng: normals(rng, -3),
    lambda rng: gammas(rng, 3, 2, -1),
    lambda rng: gammas(rng, 2.5, 1, -1),
    lambda rng: rng.next_uniforms(-1),
], ids=["normals", "gammas integer shape", "gammas fractional shape", "next_uniforms"])
def test_negative_size_rejected(draw):
    rng = RngStream(1)
    with pytest.raises(ValidationError, match="size must be nonnegative, got -"):
        draw(rng)
    assert rng.draws == 0


@pytest.mark.parametrize("draw", [
    lambda rng: normals(rng, 2.5),
    lambda rng: gammas(rng, 3, 1, 2.5),
    lambda rng: gammas(rng, 2.5, 1, 2.5),
    lambda rng: rng.next_uniforms(2.5),
    lambda rng: uniform_rows([rng], 2.5),
    lambda rng: rng.next_uniforms(np.float64(3.0)),
], ids=["normals", "gammas integer shape", "gammas fractional shape", "next_uniforms",
        "uniform_rows", "next_uniforms float64"])
def test_non_integer_size_rejected(draw):
    rng = RngStream(0)
    with pytest.raises(ValidationError, match="size must be an integer, got "):
        draw(rng)
    assert rng.draws == 0


def test_non_integer_size_issues_no_draw_twice():
    # a size of 2.5 used to hand out 3 draws but advance the count by 2.5,
    # so the next call repeated the third draw
    rng = RngStream(0)
    with pytest.raises(ValidationError):
        rng.next_uniforms(2.5)
    drawn = np.concatenate([rng.next_uniforms(3), rng.next_uniforms(np.int64(2))])
    assert rng.draws == 5 and type(rng.draws) is int
    ref = RngStream(0)
    assert drawn.tolist() == [ref.next_uniform() for _ in range(5)]
    assert len(set(drawn.tolist())) == 5


@pytest.mark.parametrize("shape, scale", [
    (float("nan"), 1.0), (3.0, float("nan")), (float("inf"), 1.0), (3.0, float("inf")),
])
def test_non_finite_gamma_parameters_rejected(shape, scale):
    rng = RngStream(0)
    with pytest.raises(ValidationError, match="finite and positive"):
        gammas(rng, shape, scale, 2)
    assert rng.draws == 0


def test_uniform_rows_are_the_streams_own_draws():
    streams = [RngStream(5).spawn(i) for i in range(4)]
    streams[1].next_uniforms(3)  # rows may start at different positions
    streams[3].next_uniform()
    alone = [RngStream(g.seed) for g in streams]
    for a, g in zip(alone, streams):
        a.next_uniforms(g.draws)
    rows = uniform_rows(streams, 9)
    assert rows.shape == (4, 9)
    for row, a, g in zip(rows, alone, streams):
        assert np.array_equal(row, a.next_uniforms(9))
        assert g.draws == a.draws
    assert uniform_rows(streams, 0).shape == (4, 0)


@pytest.mark.parametrize("ks", [[3, 0, 5, 1], [0, 0], [2**15 + 3, 1, 0], [7], []],
                         ids=["ragged", "none", "past one block", "one stream", "no streams"])
def test_uniform_runs_are_each_streams_own_draws(ks):
    streams = [RngStream(6).spawn(i) for i in range(len(ks))]
    if streams:
        streams[0].next_uniforms(4)  # runs may start at different positions
    alone = [RngStream(g.seed) for g in streams]
    for a, g in zip(alone, streams):
        a.next_uniforms(g.draws)
    # no streams raised IndexError, where uniform_rows([], k) has shape (0, k)
    runs = _uniform_runs(streams, np.array(ks, dtype=np.int64))
    want = [np.empty(0)] + [a.next_uniforms(k) for a, k in zip(alone, ks)]
    assert runs.dtype == np.float64 and np.array_equal(runs, np.concatenate(want))
    assert [g.draws for g in streams] == [a.draws for a in alone]


def test_stream_rows_draw_spawn_and_slice_as_their_streams():
    streams = [RngStream(8).spawn(i) for i in range(5)]
    rows = _stream_rows(streams)  # rows of RngStreams write their counts back to them
    assert isinstance(rows, _Streams) and len(rows) == 5
    children = rows.spawn(3)
    assert children.seeds.tolist() == [g.spawn(3).seed for g in streams]
    assert children.counts.tolist() == [0] * 5 and not children._owners
    alone = [g.spawn(3) for g in streams]
    # a slice is a view: drawing from it moves the rows it holds, and only those
    first = uniform_rows(children[:3], 4)
    assert children.counts.tolist() == [4, 4, 4, 0, 0]
    assert np.array_equal(first, [a.next_uniforms(4) for a in alone[:3]])
    runs = _uniform_runs(children, np.array([2, 0, 1, 3, 0]))
    want = [a.next_uniforms(k) for a, k in zip(alone, [2, 0, 1, 3, 0])]
    assert np.array_equal(runs, np.concatenate(want))
    # a draw made stream by stream reads and writes back each row's position
    got = gammas(children, 2.5, 1.0, 3)
    assert np.array_equal(got, [gammas(a, 2.5, 1.0, 3) for a in alone])
    assert children.counts.tolist() == [a.draws for a in alone]
    assert normals(rows, 2).shape == (5, 2) and [g.draws for g in streams] == [2] * 5
    # a sequence of one stream draws alone, through next_uniforms
    assert _stream_rows([streams[0]]) is streams[0]


def unblocked_rows(rngs, k):
    """The single-pass SplitMix64 array kernel uniform_rows had before blocking."""
    u = lambda b: np.uint64(b)
    seeds = np.array([g.seed for g in rngs], dtype=np.uint64)
    first = np.array([g._count + 1 for g in rngs], dtype=np.uint64)
    z = first[:, None] + np.arange(k, dtype=np.uint64)
    z *= u(0x9E3779B97F4A7C15)
    z += seeds[:, None]
    z ^= z >> u(30)
    z *= u(0xBF58476D1CE4E5B9)
    z ^= z >> u(27)
    z *= u(0x94D049BB133111EB)
    z ^= z >> u(31)
    z >>= u(11)
    return z.astype(np.float64) * 2.0**-53


BLOCK_EDGES = [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7]


@pytest.mark.parametrize("k", BLOCK_EDGES)
def test_next_uniforms_match_scalar_draws_across_blocks(k):
    g = RngStream(23)
    g.next_uniforms(3)
    scalar = RngStream(23)
    scalar.next_uniforms(3)
    want = unblocked_rows([g], k)[0]
    got = g.next_uniforms(k)
    assert got.shape == (k,) and got.dtype == np.float64
    assert np.array_equal(got, want)  # bit for bit
    assert g.draws == 3 + k
    assert got.tolist() == [scalar.next_uniform() for _ in range(k)]


@pytest.mark.parametrize("rows, k", [(1, k) for k in BLOCK_EDGES] + [(3, k) for k in BLOCK_EDGES] + [
    (400, 100), (328, 100), (7, 2**15 // 7 + 1),
])
def test_uniform_rows_match_scalar_draws_across_blocks(rows, k):
    streams = [RngStream(17).spawn(i) for i in range(rows)]
    for i, g in enumerate(streams):  # at different, nonzero positions
        g.next_uniforms(1 + i % 5)
    scalar = [RngStream(g.seed) for g in streams]
    for a, g in zip(scalar, streams):
        a.next_uniforms(g.draws)
    before = [g.draws for g in streams]
    want = unblocked_rows(streams, k)
    got = uniform_rows(streams, k)
    assert got.shape == (rows, k) and got.dtype == np.float64
    assert np.array_equal(got, want)  # bit for bit
    assert [g.draws for g in streams] == [b + k for b in before]
    for r in {0, rows // 2, rows - 1}:  # rows in different blocks
        assert got[r].tolist() == [scalar[r].next_uniform() for _ in range(k)]


def test_seed_must_be_an_integer():
    # a float seed used to be truncated: RngStream(2.5) was RngStream(2)
    for seed in (2.5, 3.0, None, "3"):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            RngStream(seed)
    assert RngStream(np.int64(3)).seed == 3 and type(RngStream(np.int64(3)).seed) is int
    assert RngStream(-1).seed == 2**64 - 1  # negative seeds are masked


def test_spawn_key_must_be_an_integer():
    # a float key used to be truncated: spawn(2.5) was spawn(2)
    for key in (2.5, 2.0, None):
        with pytest.raises(ValidationError, match="key must be an integer"):
            RngStream(5).spawn(key)
    assert RngStream(5).spawn(np.int64(2)).seed == RngStream(5).spawn(2).seed


def test_uniform_rows_of_no_streams():
    for k in (0, 5, 2**15 + 1):
        assert uniform_rows([], k).shape == (0, k)


@pytest.mark.parametrize("draw", [
    lambda rng, size: normals(rng, size),
    lambda rng, size: gammas(rng, 3, 2, size),
    lambda rng, size: gammas(rng, 2.5, 1, size),
    lambda rng, size: gammas(rng, 0.7, 2, size),
], ids=["normals", "gammas integer shape", "gammas fractional shape", "gammas shape < 1"])
@pytest.mark.parametrize("size", [0, 1, 2, 7])
def test_sequence_of_streams_draws_one_row_each(draw, size):
    streams = [RngStream(11).spawn(i) for i in range(3)]
    alone = [RngStream(g.seed) for g in streams]
    rows = draw(streams, size)
    assert rows.shape == (3, size) and rows.dtype == np.float64
    for row, a, g in zip(rows, alone, streams):
        assert np.array_equal(row, draw(a, size))  # bit for bit
        assert g.draws == a.draws


@pytest.mark.parametrize("draw", [
    lambda rngs: uniform_rows(rngs, 2),
    lambda rngs: normals(rngs, 2),
    lambda rngs: gammas(rngs, 3, 1, 2),
    lambda rngs: gammas(rngs, 2.5, 1, 2),
], ids=["uniform_rows", "normals", "gammas integer shape", "gammas fractional shape"])
def test_stream_listed_twice_rejected_before_drawing(draw):
    # uniform_rows and normals gave two equal rows and advanced g twice
    g, h = RngStream(5), RngStream(6)
    with pytest.raises(ValidationError,
                       match="stream at index 2 repeats the stream at index 0"):
        draw([g, h, g])
    assert g.draws == h.draws == 0


def test_distinct_streams_with_one_seed_are_two_rows():
    rows = uniform_rows([RngStream(5), RngStream(5)], 3)
    assert np.array_equal(rows[0], rows[1])


def test_gamma_integer_shape_moments():
    g = gammas(RngStream(3), 3, 2, 200_000)
    assert np.all(g > 0)
    assert g.mean() == pytest.approx(6.0, rel=0.02)
    assert g.var() == pytest.approx(12.0, rel=0.05)


def test_gamma_fractional_shape_moments():
    g = gammas(RngStream(3), 2.5, 1.0, 50_000)
    assert g.mean() == pytest.approx(2.5, rel=0.03)
    assert g.var() == pytest.approx(2.5, rel=0.06)


def test_gamma_reproducible():
    a = gammas(RngStream(17), 3, 2, 50)
    b = gammas(RngStream(17), 3, 2, 50)
    assert np.array_equal(a, b)


def test_gamma_rejects_bad_params():
    with pytest.raises(ValueError):
        gammas(RngStream(0), 0, 1, 1)
    with pytest.raises(ValueError):
        gammas(RngStream(0), 1, -1, 1)
