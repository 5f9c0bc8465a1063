"""The engine of the sampled lattice suite: the uniform sampler of lattice
points, the loop over one index range of triples, and the fan-out of the
ranges over forked workers.

:func:`lattice.run_triple_suite`, :func:`lattice.sample_multiindex` and
:func:`lattice.distance_comparison_check` import this module when they run,
so a command that runs none of them, such as ``verify`` or ``curvature``,
neither loads it nor :mod:`random`, and a process that caches no bytecode
does not compile it.
"""
from __future__ import annotations

import marshal
import math
import os
import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable

from .multiindex import counts_text
from .wick import double_factorial_table, wick_kernel

#: Constant tested in the distance-comparison inequality, as the exact
#: (numerator, denominator) pair of delta.  The bound chain
#: prod (1 - x/(2s))^s <= exp(-x/2) <= 1 - (1 - e^(-1/2)) x on [0,1] justifies
#: delta = 1 - e^(-1/2) ~ 0.393 for the squared cosine; 1/4 is tested as the
#: safer constant and holds with a wide sampled margin.  A pair, not a
#: ``Fraction``, so that the lattice command never imports :mod:`fractions`.
COMPARISON_DELTA = (1, 4)

#: Triples per seeded block of the suite.  Triple i belongs to block
#: i // TRIPLE_BLOCK; each block reseeds the generator once and its triples
#: take the next draws, so a reseed (about 5 us) costs under 0.5% of a block.
TRIPLE_BLOCK = 100


def _task_seed(seed: int, block: int) -> int:
    """The seed of one block of the suite's triples: mixing the suite seed
    with the block index keeps each block's stream independent of which
    process draws it, and of the order the blocks run in."""
    return (seed * 1_000_003 + block) & 0xFFFFFFFFFFFFFFFF


def _pool_draw_sequences(k: int, max_degree: int, limit: int) -> list[int] | None:
    """The number of draw sequences of k picks from a pool of d + k, that is
    (d + k)! / d!, for each degree d <= max_degree; or None once their sum
    passes ``limit``.  Each product grows one factor at a time and the sum
    stops at the first partial sum past ``limit``, so no integer much
    larger than ``limit`` is formed, whatever k."""
    sequences = []
    total = 0
    for d in range(max_degree + 1):
        seqs = 1
        for m in range(d + 1, d + k + 1):
            seqs *= m
            if total + seqs > limit:
                return None
        sequences.append(seqs)
        total += seqs
    return sequences


def _counts_sampler(
    n: int, max_degree: int, draws: int = 1
) -> Callable[[random.Random], tuple[int, ...]]:
    """Uniform sampler of count tuples of degree <= max_degree, for a caller
    that draws ``draws`` points.

    Picks the degree with stars-and-bars weights, then a uniformly random
    composition of that degree into n parts.  The draws are written out from
    :mod:`random` so that the stream is the one its methods draw:

    * the degree is the body of
      ``rng.choices(range(max_degree + 1), cum_weights=..., k=1)[0]``: one
      ``random()`` bisected into the cumulative weights;
    * the n - 1 bars are the body of ``rng.sample(range(d + n - 1), n - 1)``
      with its ``_randbelow(m)``, which draws ``getrandbits(m.bit_length())``
      until the draw is below m.  Like ``sample``, it swaps picks out of a
      pool when the range is at most ``setsize`` long, and otherwise rejects
      repeats against the set of picks.

    Draw table: when the pool serves every degree and its draw sequences,
    sum_d (d + n - 1)! / d! of them, are no more than ``draws``, the picks
    of a degree fold into one mixed-radix index instead.  Each index is a
    slot, filled on first use with the point its picks give, one tuple
    object per distinct point; so the pool is swapped and the counts are
    built once per slot, not once per draw.  The suite also keeps a point
    text memo only when points recur, that is when the ball's
    C(max_degree + n, n) points are no more than its draws (see
    :func:`lattice.points_recur`); a table implies that, since every point
    has a slot.
    """
    cum_weights = list(
        accumulate(math.comb(d + n - 1, n - 1) for d in range(max_degree + 1))
    )
    try:
        total = cum_weights[-1] + 0.0
    except OverflowError:
        raise ValueError(
            f"n={n} and max_degree={max_degree} give too many lattice points "
            "for float degree weights"
        ) from None
    k = n - 1  # bars
    setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
    # Each pool is a prefix of ``ints``, and no range drawn from is longer
    # than max_degree + k, so both tables are O(max_degree + n).
    ints = list(range(max_degree + k))
    bit_length = [m.bit_length() for m in range(max_degree + k + 1)]

    sequences = None
    if k and max_degree + k <= setsize:
        sequences = _pool_draw_sequences(k, max_degree, draws)
    if sequences:
        # per degree: the (m, bits) of each pick, and a slot per sequence
        degrees = [
            (tuple((m, bit_length[m]) for m in range(d + k, d, -1)), [None] * seqs)
            for d, seqs in enumerate(sequences)
        ]
        interned: dict[tuple[int, ...], tuple[int, ...]] = {}

        def fill(d: int, index: int) -> tuple[int, ...]:
            """The point of a slot: the picks are the digits of its index,
            the last pick least significant, swapped out of the pool in
            draw order as below."""
            size = d + k
            picks = []
            for m in range(d + 1, size + 1):
                index, j = divmod(index, m)
                picks.append(j)
            pool = ints[:size]
            bars = [-1]
            for m, j in zip(range(size, d, -1), reversed(picks)):
                bars.append(pool[j])
                pool[j] = pool[m - 1]
            bars.sort()
            bars.append(size)
            point = tuple(hi - lo - 1 for lo, hi in zip(bars, bars[1:]))
            return interned.setdefault(point, point)

        def sample(rng: random.Random) -> tuple[int, ...]:
            d = bisect_right(cum_weights, rng.random() * total, 0, max_degree)
            getrandbits = rng.getrandbits
            radices, slots = degrees[d]
            index = 0
            for m, bits in radices:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                index = index * m + j
            point = slots[index]
            if point is None:
                point = slots[index] = fill(d, index)
            return point

        return sample

    def sample(rng: random.Random) -> tuple[int, ...]:
        d = bisect_right(cum_weights, rng.random() * total, 0, max_degree)
        if not k:
            return (d,)
        getrandbits = rng.getrandbits
        size = d + k
        if size <= setsize:
            pool = ints[:size]
            bars = []
            for m in range(size, d, -1):
                bits = bit_length[m]
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                bars.append(pool[j])
                pool[j] = pool[m - 1]
            bars.sort()
        else:
            bits = bit_length[size]
            picked = set()
            for _ in range(k):
                j = getrandbits(bits)
                while j >= size or j in picked:
                    j = getrandbits(bits)
                picked.add(j)
            bars = sorted(picked)
        counts = []
        prev = -1
        for bar in bars:
            counts.append(bar - prev - 1)
            prev = bar
        counts.append(size - 1 - prev)
        return tuple(counts)

    return sample


def _cos(kernel: tuple[int, int, int, int]) -> float:
    """B as a float from a :func:`wick_kernel` result.

    int / int true division is correctly rounded, so this equals the float
    view of the reduced exact square (``WickB.value``) bit for bit.
    """
    sign, magnitude, diag_a, diag_b = kernel
    if sign == 0:
        return 0.0
    return sign * math.sqrt(magnitude * magnitude / (diag_a * diag_b))


#: Fewest triples in a range of the suite, give or take half a block (see
#: :func:`_range_bounds`).  Forking a worker, piping a small result back and
#: reaping it took about 1.0 ms from a CLI process on a 2-vCPU x86-64 VM
#: (Python 3.11; median of 60 forks, in each of 3 processes), the work of
#: about 190 triples (5.4 us each at n = 3, max_degree = 8, CSV line
#: included, with one reseed per block and the draw table), so a range of
#: 1000 triples spends about a fifth of its time on its worker, and a split
#: in two already pays from a few hundred triples.
MIN_RANGE = 1000


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _range_bounds(count: int) -> list[int]:
    """Bounds of the suite's contiguous index ranges: one range per CPU the
    process may use, each of about ``MIN_RANGE`` triples or more, and a
    single range where the platform cannot fork or say which CPUs it may use.

    Each interior bound is the block boundary nearest the balanced split
    (rounding half up), so no block of :data:`TRIPLE_BLOCK` triples spans two
    ranges.  That moves a bound by at most half a block, so a range may fall
    short of ``MIN_RANGE`` by that much.
    """
    ranges = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        ranges = max(1, min(_cpu_count(), count // MIN_RANGE))
    step = 2 * ranges * TRIPLE_BLOCK
    inner = [(2 * count * k + step // 2) // step * TRIPLE_BLOCK
             for k in range(1, ranges)]
    return [0, *inner, count]


def _triple_range(n, df, sample, seed, triangle_slack_tol, lo, hi, render):
    """Triples ``lo`` to ``hi - 1`` of the suite; ``lo`` is a multiple of
    :data:`TRIPLE_BLOCK`.

    The generator is reseeded with ``_task_seed(seed, b)`` at the first
    triple of each block b, and each triple draws its three points next
    from that stream.  ``render`` gets an iterator over the rows, as plain
    tuples in :class:`lattice.TripleRow` field order; rows it leaves unread
    are checked all the same.  Returns ``render``'s result, the five violation
    counts, the largest triangle slack with the first triple that reaches
    it, and the smallest comparison margin.
    """
    delta_num, delta_den = COMPARISON_DELTA
    summary = []

    def triples():
        triangle_violations = 0
        identity_violations = 0
        orthogonality_violations = 0
        comparison_violations = 0
        stabilization_violations = 0
        max_slack = -math.inf
        worst: tuple[str, str, str] | None = None
        min_margin = math.inf
        kernel = wick_kernel
        acos = math.acos
        rng = random.Random()
        # An int seed makes random.Random.seed type-check it, call this base
        # method and clear the Gaussian spare, which no sampler reads.
        reseed = super(random.Random, rng).seed
        for i in range(lo, hi):
            if not i % TRIPLE_BLOCK:
                reseed(_task_seed(seed, i // TRIPLE_BLOCK))
            a = sample(rng)
            b = sample(rng)
            c = sample(rng)

            ab = kernel(a, b, df)
            cos_ab = _cos(ab)
            d_ab = acos(cos_ab)
            d_bc = acos(_cos(kernel(b, c, df)))
            d_ac = acos(_cos(kernel(a, c, df)))

            slack = max(d_ac - d_ab - d_bc, d_ab - d_ac - d_bc, d_bc - d_ab - d_ac)
            if slack > triangle_slack_tol:
                triangle_violations += 1
            if slack > max_slack:
                max_slack = slack
                worst = (counts_text(a), counts_text(b), counts_text(c))

            sign, magnitude, diag_a, diag_b = ab
            num, den = magnitude * magnitude, diag_a * diag_b  # B(a, b)^2 = num / den
            # d(a, b) = 0 <=> a = b, decided on B^2 = 1 exactly.
            if (sign == 1 and num == den) != (a == b):
                identity_violations += 1

            # One pass: the parity mismatch (low bit of the OR of x ^ y),
            # the L1 distance d0 and the total degree.
            odd = d0 = total = 0
            for x, y in zip(a, b):
                odd |= x ^ y
                d0 += x - y if x > y else y - x
                total += x + y
            if (sign == 0) != (odd & 1):
                orthogonality_violations += 1

            if total:
                # rhs = 1 - delta d0 / total = p / q >= 1 - delta >= 0, so
                # B^2 <= rhs^2 is num q^2 <= den p^2.
                q = delta_den * total
                p = q - delta_num * d0
                if num * q * q > den * p * p:
                    comparison_violations += 1
                lhs, rhs = abs(cos_ab), p / q
                if d0:
                    margin = (1.0 - lhs) * total / d0
                    if margin < min_margin:
                        min_margin = margin
            else:
                lhs, rhs = 1.0, 1.0

            # One diagonal step along each axis must not shrink B^2; the
            # shifted B^2 comes from the closed form, not from the step
            # recurrence.  With B = 0 there is nothing to shrink.
            if sign:
                for j in range(n):
                    _, s_mag, s_diag_a, s_diag_b = kernel(
                        a[:j] + (a[j] + 1,) + a[j + 1:],
                        b[:j] + (b[j] + 1,) + b[j + 1:],
                        df,
                    )
                    if s_mag * s_mag * den < num * s_diag_a * s_diag_b:
                        stabilization_violations += 1
                        break

            yield (a, b, c, d_ab, d_bc, d_ac, slack, lhs, rhs)

        summary.extend((
            (triangle_violations, identity_violations, orthogonality_violations,
             comparison_violations, stabilization_violations),
            max_slack, worst, min_margin,
        ))

    rows = triples()
    out = render(rows)
    for _ in rows:
        pass
    return (out, *summary)


def _fork(run, lo: int, hi: int):
    """Start ``run(lo, hi)`` in a forked child.

    Returns the child's pid and the read end of a pipe that carries
    ``marshal.dumps((True, result))``, or ``(False, error text)`` if ``run``
    raised.  The child leaves by ``os._exit``, so it never returns into the
    caller, runs no exit handler and flushes no buffer it inherited.  The
    caller forks from a single thread: the package starts no threads.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = marshal.dumps((True, run(lo, hi)))
            except Exception as exc:  # the parent raises it, with the range
                payload = marshal.dumps((False, f"{type(exc).__name__}: {exc}"))
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _fan_out(run, bounds: list[int]) -> list:
    """``run(lo, hi)`` over consecutive ``bounds``, results in index order:
    each range but the last in a forked worker, the last in this process.

    Every worker is reaped before this returns or raises; if anything here
    fails, the workers still running are killed first.
    """
    ranges = list(zip(bounds, bounds[1:]))
    workers = []  # (pid, pipe) per forked range
    try:
        for lo, hi in ranges[:-1]:
            workers.append(_fork(run, lo, hi))
        last = run(*ranges[-1])
        payloads = [pipe.read() for _, pipe in workers]
    except BaseException:
        if workers:
            from signal import SIGKILL  # not imported on the path that succeeds

            for pid, _ in workers:
                os.kill(pid, SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe in workers:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    parts = []
    for (lo, hi), payload, status in zip(ranges, payloads, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise RuntimeError(
                f"the worker for triples {lo}..{hi - 1} exited with status {code}"
            )
        ok, result = marshal.loads(payload)
        if not ok:
            raise RuntimeError(f"the worker for triples {lo}..{hi - 1} failed: {result}")
        parts.append(result)
    parts.append(last)
    return parts


def _suite_ranges(n, max_degree, count, seed, triangle_slack_tol, render):
    """The suite's ranges, each run by :func:`_triple_range` with ``render``,
    as :func:`_fan_out` returns them.  The sampler is built before the
    double factorial table, so a ball too large for its float degree
    weights is refused before any table is built."""
    sample = _counts_sampler(n, max_degree, 3 * count)
    # the shifted pairs reach multiplicity max_degree + 1
    df = double_factorial_table(max_degree + 2)

    def run(lo: int, hi: int):
        return _triple_range(n, df, sample, seed, triangle_slack_tol, lo, hi, render)

    return _fan_out(run, _range_bounds(count))
