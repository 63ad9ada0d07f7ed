"""Tests for the LWE single-server PIR core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.lwe import (
    LweParams,
    LwePirClient,
    LwePirServer,
    hint_product,
    public_matrix,
    rounding_bits,
)
from repro.errors import CryptoError


def make_pair(rows=16, cols=32, n=64, seed=3):
    rng = np.random.default_rng(seed)
    db = rng.integers(0, 256, size=(rows, cols), dtype=np.uint64)
    params = LweParams(n=n)
    server = LwePirServer(db, params=params)
    client = LwePirClient(server.a_matrix, server.hint(), params=params,
                          rng=np.random.default_rng(seed + 1))
    return db, server, client


class TestParams:
    def test_delta(self):
        assert LweParams(p=256).delta == 2**24

    def test_max_columns_positive(self):
        assert LweParams().max_columns() > 1000

    def test_validation(self):
        with pytest.raises(CryptoError):
            LweParams(n=0)
        with pytest.raises(CryptoError):
            LweParams(p=1)
        with pytest.raises(CryptoError):
            LweParams(noise_bound=0)



class TestCorrectness:
    @pytest.mark.parametrize("column", [0, 7, 31])
    def test_fetch_column(self, column):
        db, server, client = make_pair()
        answer = server.answer(client.query(column))
        recovered = client.decode(answer)
        assert (recovered == db[:, column]).all()

    def test_every_column_in_small_db(self):
        db, server, client = make_pair(rows=8, cols=8)
        for column in range(8):
            got = client.decode(server.answer(client.query(column)))
            assert (got == db[:, column]).all()

    def test_repeated_queries_fresh_randomness(self):
        _, server, client = make_pair()
        q1 = client.query(5)
        client.decode(server.answer(q1))
        q2 = client.query(5)
        assert not (q1 == q2).all()

    def test_pipelined_queries_decode_in_order(self):
        db, server, client = make_pair()
        q1, q2 = client.query(1), client.query(2)
        a1, a2 = server.answer(q1), server.answer(q2)
        assert (client.decode(a1) == db[:, 1]).all()
        assert (client.decode(a2) == db[:, 2]).all()

    def test_max_noise_still_correct(self):
        """Correctness holds at the parameter bound, not just on average."""
        params = LweParams(n=32, noise_bound=8)
        rng = np.random.default_rng(9)
        cols = params.max_columns()
        db = np.full((4, min(cols, 64)), 255, dtype=np.uint64)
        server = LwePirServer(db, params=params)
        client = LwePirClient(server.a_matrix, server.hint(), params=params,
                              rng=rng)
        for column in (0, db.shape[1] - 1):
            got = client.decode(server.answer(client.query(column)))
            assert (got == db[:, column]).all()


class TestValidation:
    def test_entries_exceeding_p(self):
        with pytest.raises(CryptoError):
            LwePirServer(np.full((2, 2), 256, dtype=np.uint64))

    def test_too_many_columns(self):
        params = LweParams(n=16, p=256, noise_bound=64)
        too_wide = params.max_columns() + 1
        with pytest.raises(CryptoError):
            LwePirServer(np.zeros((2, too_wide), dtype=np.uint64), params=params)

    def test_no_column_decodes(self):
        """At p = 2^16 and noise_bound = 4 one column's worst-case noise
        already reaches Δ/2, so not even a one-column database is served."""
        params = LweParams(n=16, p=2**16, noise_bound=4)
        assert params.max_columns() == 0
        with pytest.raises(CryptoError, match="correctness bound 0"):
            LwePirServer(np.zeros((2, 1), dtype=np.uint64), params=params)

    def test_query_shape(self):
        _, server, _ = make_pair()
        with pytest.raises(CryptoError):
            server.answer(np.zeros(5, dtype=np.uint64))

    def test_decode_before_query(self):
        _, server, client = make_pair()
        with pytest.raises(CryptoError):
            client.decode(np.zeros(16, dtype=np.uint64))

    def test_column_out_of_range(self):
        _, _, client = make_pair()
        with pytest.raises(CryptoError):
            client.query(32)

    def test_columns_past_the_exact_float64_range(self):
        """The hint product is exact only while ``cols·(p-1)·(2^16-1)``
        stays below 2^53; a wider database is refused up front."""
        params = LweParams(n=1)
        cols = -(-2**53 // ((params.p - 1) * (2**16 - 1)))
        with pytest.raises(CryptoError, match="exact"):
            LwePirServer(np.zeros((1, cols), dtype=np.uint64), params=params)


def reference_hint(db, a_matrix):
    """The uint64 product the float64 kernel must reproduce bit for bit."""
    return (db @ a_matrix) & np.uint64(2**32 - 1)


class TestHintProduct:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 90), st.integers(1, 150),
           st.sampled_from([2, 256, 2**16]), st.integers(0, 2**32))
    def test_matches_reference_on_random_inputs(self, rows, cols, n, p, seed):
        rng = np.random.default_rng(seed)
        db = rng.integers(0, p, size=(rows, cols), dtype=np.uint64)
        a_matrix = rng.integers(0, 2**32, size=(cols, n), dtype=np.uint64)
        got = hint_product(db, a_matrix)
        assert got.dtype == np.uint32
        assert np.array_equal(got, reference_hint(db, a_matrix))

    @pytest.mark.parametrize("cols", [500, LweParams().max_columns()])
    def test_worst_case_entries(self, cols):
        """Every DB entry p-1 and every A entry 2^32-1, the largest
        partial sums the limbs can produce, up to the widest database the
        default parameters accept."""
        params = LweParams()
        db = np.full((2, cols), params.p - 1, dtype=np.uint64)
        a_matrix = np.full((cols, 70), 2**32 - 1, dtype=np.uint64)
        assert np.array_equal(hint_product(db, a_matrix),
                              reference_hint(db, a_matrix))

    def test_server_hint_is_the_reference_and_read_only(self):
        db, server, _ = make_pair()
        hint = server.hint()
        assert np.array_equal(hint, reference_hint(db, server.a_matrix))
        assert not hint.flags.writeable
        with pytest.raises(ValueError):
            hint[0, 0] = 0
        server.update_column(0, np.zeros(16, dtype=np.uint64))
        assert not server.hint().flags.writeable
        assert np.array_equal(hint, reference_hint(db, server.a_matrix))


MASK = np.uint64(2**32 - 1)


def reference_matvec(matrix, vector):
    """``matrix · vector mod 2^32`` as a masked uint64 product."""
    return (matrix.astype(np.uint64) @ vector.astype(np.uint64)) & MASK


def reference_query(a_matrix, column, params, rng):
    """A query built the way it was before Δ became a one-hot: the uint64
    mat-vec, then a write of Δ at the queried position."""
    secret = rng.integers(0, 2**32, size=params.n, dtype=np.uint64)
    noise = rng.integers(-params.noise_bound, params.noise_bound + 1,
                         size=a_matrix.shape[0]).astype(np.int64)
    query = (a_matrix.astype(np.uint64) @ secret + noise.astype(np.uint64)) & MASK
    query[column] = (query[column:column + 1] + np.uint64(params.delta))[0] & MASK
    return secret, query


def reference_decode(hint, secret, answer, params):
    """The uint64 decode: unmask with ``H·s``, round to the nearest Δ."""
    masked = (answer.astype(np.uint64) - reference_matvec(hint, secret)) & MASK
    vals = ((masked.astype(np.float64) / params.delta) + 0.5).astype(np.int64)
    return vals % params.p


def wide_words(rng, size):
    """Words over the whole uint64 range, so most are at or above 2^32."""
    return rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64,
                        endpoint=True)


class TestUint32MatchesUint64Reference:
    """Every Z_q operation equals the masked uint64 computation bit for
    bit, including inputs with words at or above 2^32 (reduced mod q by
    truncation)."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 24), st.integers(1, 70), st.integers(1, 80),
           st.integers(0, 2**32))
    def test_server_answer_and_update(self, rows, cols, n, seed):
        rng = np.random.default_rng(seed)
        params = LweParams(n=n)
        db = rng.integers(0, params.p, size=(rows, cols), dtype=np.uint64)
        server = LwePirServer(db, params=params)
        query = wide_words(rng, cols)
        answer = server.answer(query)
        assert answer.dtype == np.uint32
        assert np.array_equal(answer, reference_matvec(db, query))

        column = int(rng.integers(0, cols))
        new_values = rng.integers(0, params.p, size=rows, dtype=np.uint64)
        hint_before = server.hint().astype(np.uint64)
        _, delta = server.update_column(column, new_values)
        expected_delta = (new_values - db[:, column]) & MASK
        assert delta.dtype == np.uint32
        assert np.array_equal(delta, expected_delta)
        a_row = server.a_matrix[column].astype(np.uint64)
        assert np.array_equal(
            server.hint(), (hint_before + np.outer(expected_delta, a_row)) & MASK)
        db[:, column] = new_values
        assert np.array_equal(server.hint(), reference_hint(db, server.a_matrix))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(1, 24), st.integers(1, 70), st.integers(1, 80),
           st.integers(0, 2**32))
    def test_client_query_decode_and_hint_update(self, rows, cols, n, seed):
        rng = np.random.default_rng(seed)
        params = LweParams(n=n)
        a_matrix = wide_words(rng, (cols, n))
        hint = wide_words(rng, (rows, n))
        client = LwePirClient(a_matrix, hint, params=params,
                              rng=np.random.default_rng(seed))
        mirror = np.random.default_rng(seed)
        column = int(rng.integers(0, cols))
        secret, expected_query = reference_query(a_matrix, column, params,
                                                 mirror)
        query = client.query(column)
        assert query.dtype == np.uint32
        assert np.array_equal(query, expected_query)

        answer = wide_words(rng, rows)
        decoded = client.decode(answer)
        assert decoded.dtype == np.uint32
        assert np.array_equal(decoded,
                              reference_decode(hint, secret, answer, params))

        delta = wide_words(rng, rows)
        client.apply_hint_update(column, delta)
        assert client.hint.dtype == np.uint32
        expected_hint = (hint + np.outer(delta, a_matrix[column])) & MASK
        assert np.array_equal(client.hint, expected_hint)


class TestQueryOneHot:
    def test_query_matches_the_indexed_write_formula(self):
        """Δ added as a one-hot over every position gives byte for byte
        the query that writing Δ at the secret column gave."""
        params = LweParams(n=64)
        a_matrix = np.random.default_rng(5).integers(
            0, 2**32, size=(40, 64), dtype=np.uint64)
        client = LwePirClient(a_matrix, np.zeros((4, 64), dtype=np.uint64),
                              params=params, rng=np.random.default_rng(6))
        mirror = np.random.default_rng(6)
        for column in (0, 1, 17, 39, 39, 0):
            _, expected = reference_query(a_matrix, column, params, mirror)
            got = client.query(column)
            assert got.astype("<u8").tobytes() == expected.astype("<u8").tobytes()


class TestPreparedPool:
    """``prepare`` does a query's secret-only work ahead; what ``query``
    and ``decode`` then produce is what they produced doing it all
    themselves: the reference formulas over the same draws."""

    def mirrored(self, n=64, rows=16, cols=32, seed=12):
        rng = np.random.default_rng(seed)
        params = LweParams(n=n)
        db = rng.integers(0, params.p, size=(rows, cols), dtype=np.uint64)
        server = LwePirServer(db, params=params)
        client = LwePirClient(server.a_matrix, server.hint(), params=params,
                              rng=np.random.default_rng(seed + 1))
        return db, server, client, np.random.default_rng(seed + 1)

    def test_prepared_queries_use_the_draws_in_order(self):
        db, server, client, mirror = self.mirrored()
        client.prepare(3)
        columns = (4, 31, 4, 0)
        secrets, queries = [], []
        for column in columns:
            secret, expected = reference_query(server.a_matrix, column,
                                               client.params, mirror)
            query = client.query(column)
            assert np.array_equal(query, expected)
            secrets.append(secret)
            queries.append(query)
        # prepare(k) then k pipelined queries (and one past the pool)
        # decode in order.
        for column, secret, query in zip(columns, secrets, queries):
            answer = server.answer(query)
            got = client.decode(answer)
            assert np.array_equal(got, reference_decode(
                server.hint(), secret, answer, client.params))
            assert np.array_equal(got, db[:, column])

    def test_pool_keeps_only_the_last_count(self):
        """prepare(1) after prepare(3) drops the two newest entries
        unused: the next query past the pool takes the fourth draw."""
        _, server, client, mirror = self.mirrored()
        client.prepare(3)
        client.prepare(1)
        draws = [reference_query(server.a_matrix, 5, client.params, mirror)
                 for _ in range(4)]
        assert np.array_equal(client.query(5), draws[0][1])
        assert np.array_equal(client.query(5), draws[3][1])

    @pytest.mark.parametrize("when", ["before-query", "before-decode"])
    def test_hint_update_decodes_to_the_reference(self, when):
        """A hint update between prepare and query, or between query and
        decode, moves the stored mask to the new ``H·s``: decoding gives
        the bytes of unmasking with the new hint."""
        db, server, client, mirror = self.mirrored()
        client.prepare(2)
        column, moved = 7, 19
        new_values = (db[:, moved] + 1) % client.params.p
        if when == "before-query":
            client.apply_hint_update(*server.update_column(moved, new_values))
        secret, expected = reference_query(server.a_matrix, moved,
                                           client.params, mirror)
        query = client.query(moved)
        assert np.array_equal(query, expected)
        if when == "before-decode":
            client.apply_hint_update(*server.update_column(moved, new_values))
        answer = server.answer(query)
        got = client.decode(answer)
        assert np.array_equal(got, reference_decode(
            client.hint, secret, answer, client.params))
        assert np.array_equal(got, new_values)
        # The second pooled query moved too.
        got = client.decode(server.answer(client.query(column)))
        assert np.array_equal(got, db[:, column])

    def test_dropped_in_flight_masks_are_not_decoded(self):
        db, server, client, _ = self.mirrored()
        client.query(1)
        client.drop_in_flight()
        with pytest.raises(CryptoError, match="before query"):
            client.decode(np.zeros(16, dtype=np.uint32))
        got = client.decode(server.answer(client.query(2)))
        assert np.array_equal(got, db[:, 2])


class TestPublicMatrix:
    def test_the_seeded_uint64_draw_cast_to_uint32(self):
        """A seed names the matrix the server always drew: the same values
        a client handed ``server.a_matrix`` computed with."""
        got = public_matrix(7, 40, 24)
        draw = np.random.default_rng(7).integers(
            0, 2**32, size=(40, 24), dtype=np.uint64)
        assert got.dtype == np.uint32
        assert np.array_equal(got, draw)
        _, server, _ = make_pair(cols=40, n=24)
        assert np.array_equal(server.a_matrix, got)

    def test_seeds_differ(self):
        assert not np.array_equal(public_matrix(7, 8, 8), public_matrix(8, 8, 8))


class TestPrivacyShape:
    def test_query_looks_uniform(self):
        """The query vector must not reveal the hot column in the clear."""
        _, server, client = make_pair(cols=64)
        query = client.query(10).astype(np.float64)
        # The Δ-scaled unit entry is masked by A·s + e; no entry should be
        # an extreme outlier relative to the 2^32 range.
        spread = query.max() - query.min()
        assert spread > 2**30  # values fill the modulus range

    def test_communication_accounting(self):
        """At 32 columns (kq, ka) = (10, 22): 32 query words of 22 bits
        and 16 answer words of 10 bits; the hint's words are whole."""
        _, server, _ = make_pair(rows=16, cols=32)
        assert rounding_bits(256, 4, 32) == (10, 22)
        assert server.query_bytes() == 32 * 22 // 8
        assert server.answer_bytes() == 16 * 10 // 8
        assert server.hint_bytes() == 16 * 64 * 4


def decodes_at_worst(p, noise_bound, columns, kq, ka):
    """Whether a query for a column of ``p - 1`` entries decodes under the
    worst error the widths allow, through the real server and client.

    Every query word carries noise ``±noise_bound`` and rounding error
    ``±2**(kq-1)`` of the same sign, aligned with the ``p - 1`` entries of
    the answer's first row, and the answer word adds ``±2**(ka-1)``: the
    largest error the bound in :func:`rounding_bits` admits. A ``kq`` whose
    ``2**kq`` does not divide Δ fails outright.
    """
    params = LweParams(n=2, p=p, noise_bound=noise_bound)
    if params.delta % (1 << kq):
        return False
    db = np.zeros((2, columns), dtype=np.uint64)
    db[0] = p - 1
    server = LwePirServer(db, params=params)
    for sign in (1, -1):
        client = LwePirClient(server.a_matrix, server.hint(), params=params,
                              rng=np.random.default_rng(0))
        secret = np.random.default_rng(0).integers(
            0, 2**32, size=params.n, dtype=np.uint64)
        client.query(0)
        error = sign * (noise_bound + ((1 << kq) >> 1))
        query = (reference_matvec(server.a_matrix, secret).astype(np.int64)
                 + error + params.delta * (np.arange(columns) == 0)) % 2**32
        answer = (server.answer(query.astype(np.uint64)).astype(np.int64)
                  + sign * ((1 << ka) >> 1)) % 2**32
        if not np.array_equal(client.decode(answer.astype(np.uint64)),
                              [p - 1, 0]):
            return False
    return True


ROUNDING_GRID = [
    (256, 4, 1024),  # fetch_lwe
    (256, 4, LweParams().max_columns()),
    (256, 4, 1), (256, 4, 64), (256, 1, 4096), (256, 16, 512),
    (2, 1, 1), (2, 4, 1000), (16, 4, 2048), (1024, 16, 128),
    (3, 2, 5000), (100, 4, 300),
]


class TestRoundingBits:
    """The widths are exactly as narrow as decoding allows: at every
    grid point the worst case decodes, and narrowing either width by one
    bit makes it fail."""

    def test_fetch_lwe_and_max_columns(self):
        assert rounding_bits(256, 4, 1024) == (5, 22)
        assert rounding_bits(256, 4, LweParams().max_columns()) == (0, 7)

    @pytest.mark.parametrize("p, noise_bound, columns", ROUNDING_GRID)
    def test_worst_case_decodes_and_one_bit_narrower_does_not(
            self, p, noise_bound, columns):
        kq, ka = rounding_bits(p, noise_bound, columns)
        assert decodes_at_worst(p, noise_bound, columns, kq, ka)
        assert not decodes_at_worst(p, noise_bound, columns, kq + 1, ka)
        assert not decodes_at_worst(p, noise_bound, columns, kq, ka + 1)

    def test_no_margin_refused(self):
        with pytest.raises(CryptoError, match="margin"):
            rounding_bits(2**16, 4, 1)
