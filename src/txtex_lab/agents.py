"""Reference learners and teachers, and the default registry.

Learners are ``session.Learner`` objects: each carries its own name and cost
note and starts a fresh generator program per run, so one object can serve
any number of sessions.  Teachers carry per-session state and are handed
around as zero-argument factories.  Pair constructors return
``(learner, teacher_factory)``.  Pairs and conversions step their
``Learner.from_step`` learners; only ``session.run_session`` interprets
actions.  The registry is a plain dict from learner id to learner; the
diagonalizing families look up the learner they attack in it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from .adversary import trap_interval
from .codec import canonical_encode, pair, poly_eval, unpair
from .descriptor import RecognizerState, recognizer_step
from .families import CsdFamily, PcsFFamily
from .session import READ, Learner, Query, Teacher, Work, compose_pair, emit, query, resolve_step


# ---------------------------------------------------------------------------
# exponential query search


def exp_search_plan(a: int):
    """Locate the unknown right endpoint n of [0, n] by base-a probing.

    Yields probe values, receives membership booleans, returns n.  Keeps a
    confirmed lower bound L, steps it by the largest a**k that stays inside,
    and stops as soon as L+1 falls outside.
    """
    if a < 2:
        raise ValueError("base must be >= 2")
    lower = 0
    while True:
        if not (yield lower + 1):
            return lower
        k = 0
        while (yield lower + a ** (k + 1)):
            k += 1
        lower += a**k


def exp_query_search(member: Callable[[int], bool], a: int) -> int:
    """Run the search against a membership callable; returns the endpoint."""
    plan = exp_search_plan(a)
    try:
        probe = next(plan)
        while True:
            probe = plan.send(member(probe))
    except StopIteration as stop:
        return stop.value


def exp_search_query_bound(n: int, a: int) -> int:
    """(m+1)**(a+1) with m the least exponent satisfying n < a**m."""
    m = 0
    while a**m <= n:
        m += 1
    return (m + 1) ** (a + 1)


def query_plan(plan, encode: Callable[[int], int] = lambda v: v):
    """Adapt a probe-value plan into oracle Query actions (for learner programs)."""
    try:
        probe = next(plan)
        while True:
            answer = yield query(encode(probe))
            probe = plan.send(answer)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# descriptor-based pair: recognizing teacher, occurrence-counting learner


class DescriptorTeacher(Teacher):
    """Waits for a full descriptor, then leads with its minimum element.

    After completion the teacher emits one item per input: first the
    descriptor's minimum repeated described-number times, then the remaining
    elements in decreasing order.  A target describing 0 gets no emissions at
    all, and a corrupt stream halts emission permanently: the recognizer's
    ``corrupt`` status is sticky, and ``complete`` fires once.
    """

    name = "descriptor-recognizer"

    def __init__(self):
        self.state = RecognizerState()
        self.plan: deque[int] = deque()

    def on_input(self, datum: int) -> list[int]:
        self.state, result = recognizer_step(self.state, datum)
        if result.status == "complete" and result.value >= 1:
            elements = sorted(self.state.seen)
            self.plan.extend([elements[0]] * result.value)
            self.plan.extend(elements[:0:-1])
            return []
        if self.plan and result.status != "corrupt":
            return [self.plan.popleft()]
        return []


def _count_learner(name: str, transform: Callable[[int], int]) -> Learner:
    """Emit transform(occurrences of the first item seen) before any item and after each.
    Its state is (the first item, or None before one; its count so far)."""

    def step(state, item):
        lead, count = state
        if lead is None:
            lead = item
        if item == lead:
            count += 1
        return (lead, count), transform(count)

    return Learner.from_step(name, (None, 0), step, "one tick per action", first=transform(0))


def make_msd_pair() -> tuple[Learner, Callable[[], Teacher]]:
    return _count_learner("lead-count", lambda c: c), DescriptorTeacher


def make_pmc_msd_learner() -> Learner:
    """Run a recognizer over the raw text; one emission, zero mind changes."""

    def program():
        state = RecognizerState()
        while True:
            datum = yield READ
            state, result = recognizer_step(state, datum)
            yield Work(1)
            if result.status == "complete":
                yield emit(result.value)
                return

    return Learner("descriptor-wait", program, "one work unit per recognizer step")


# ---------------------------------------------------------------------------
# chain-column oracle learner


def _csd_core(family: CsdFamily):
    """Find (top column, widest base element), invert through the family's anchors."""
    top = yield from query_plan(exp_search_plan(2), encode=lambda j: pair(0, j))
    t = 1
    while (yield query(pair(t, top))):
        t += 1
    index = family.identify(top, t - 1)
    return 0 if index is None else index  # 0: out of contract, not a chain-family member


def make_csd_learner(family: CsdFamily | None = None) -> Learner:
    family = family or CsdFamily(1)

    def program():
        index = yield from _csd_core(family)
        yield emit(index)

    return Learner("chain-column-oracle", program, "queries per column/element probe")


def make_merged_learner() -> Learner:
    """One probe for 0 picks the branch: chain logic doubled, or the
    descriptor count pair doubled plus one, its count learner stepped behind
    its own teacher by ``compose_pair``."""
    odd = compose_pair(_count_learner("odd-count", lambda c: 2 * c + 1), DescriptorTeacher)

    def program():
        if (yield query(0)):
            index = yield from _csd_core(CsdFamily(3))
            yield emit(2 * index)
            return
        yield from odd.program()

    return Learner("merged-branch", program)


# ---------------------------------------------------------------------------
# basic catalog


def make_finite_psd_learner() -> Learner:
    def program():
        seen: set[int] = set()
        while True:
            seen.add((yield READ))
            yield emit(pair(len(seen), canonical_encode(seen)))

    return Learner("finite-size-mask", program)


def make_pow2_plain_learner() -> Learner:
    """Emit the largest k with [0, 2**k] fully observed."""

    def program():
        seen: set[int] = set()
        covered = -1
        while True:
            seen.add((yield READ))
            while covered + 1 in seen:
                covered += 1
            yield emit(covered.bit_length() - 1 if covered >= 1 else 0)

    return Learner("pow2-collector", program)


def make_pow2_oracle_learner() -> Learner:
    def program():
        endpoint = yield from query_plan(exp_search_plan(2))
        yield emit(endpoint.bit_length() - 1 if endpoint >= 1 else 0)

    return Learner("pow2-endpoint-oracle", program, "queries per endpoint probe")


class BracketRepeatTeacher(Teacher):
    """Repeats the first element once per power-of-two bracket the max enters."""

    name = "bracket-repeater"

    def __init__(self):
        self.first: int | None = None
        self.peak = 0
        self.emitted = 0

    def on_input(self, datum: int) -> list[int]:
        if self.first is None:
            self.first = datum
        self.peak = max(self.peak, datum)
        bracket = self.peak.bit_length() - 1 if self.peak >= 1 else 0
        out = []
        while self.emitted < bracket:
            out.append(self.first)
            self.emitted += 1
        return out


def make_pow2_teacher_pair() -> tuple[Learner, Callable[[], Teacher]]:
    return _count_learner("repeat-counter", lambda c: c), BracketRepeatTeacher


def make_pow2_pmc_learner() -> Learner:
    """Emit ceil(log2(max)) after every datum; its state is the max so far (0 before any)."""

    def step(peak, datum):
        peak = max(peak, datum)
        return peak, (peak - 1).bit_length() if peak >= 1 else 0

    return Learner.from_step("pow2-threshold", 0, step, "one tick per action")


def make_join_evens_learner() -> Learner:
    """For singleton-join targets: the unique even element names the index.

    Its state is the first even datum's half, or None before one; it emits
    that half on that datum and nothing after it.
    """

    def step(half, datum):
        if half is None and datum % 2 == 0:
            return datum // 2, datum // 2
        return half, None

    return Learner.from_step("even-spotter", None, step, "one tick per action")


def make_basic_agents() -> dict:
    return {
        "finite_psd_learner": make_finite_psd_learner(),
        "pow2_plain_learner": make_pow2_plain_learner(),
        "pow2_oracle_learner": make_pow2_oracle_learner(),
        "pow2_teacher_pair": make_pow2_teacher_pair(),
        "pow2_pmc_learner": make_pow2_pmc_learner(),
        "pmc_msd_learner": make_pmc_msd_learner(),
        "join_evens_learner": make_join_evens_learner(),
    }


# ---------------------------------------------------------------------------
# conversions between teacher-dataset and mind-change learning


def convert_psdT_to_pmc(learner: Learner, teacher_factory: Callable[[], Teacher]) -> Learner:
    """Step ``learner``, a step learner, over what a fresh teacher passes on; emit its
    latest hypothesis, if it changed, just before each raw read."""
    if learner.step is None:
        raise TypeError(f"learner {learner.name} has no step for a gated conversion")
    step = learner.step

    def program():
        on_input = teacher_factory().on_input
        state, latest, emitted = learner.start, learner.first, None
        while True:
            if latest != emitted:
                yield emit(latest)
                emitted = latest
            for item in on_input((yield READ)):
                state, out = step(state, item)
                if type(out) is Query:
                    state, out = step(state, (yield out))
                    if type(out) is Query:
                        raise TypeError(f"learner {learner.name} queried twice on one datum")
                if out is not None:
                    latest = out

    return Learner(f"extension-gated({learner.name})", program)


class CountEncodingTeacher(Teacher):
    """Steps a mind-change step learner once per datum and encodes its hypotheses as counts.

    With no oracle, a query raises ``ValueError``; ``first`` comes with the
    first datum.  On each hypothesis change to h, pads its cumulative output
    with copies of one anchor element (the least seen when emission began) up
    to the least count whose pair decoding has second coordinate h.  The
    learner on the other side just decodes its running item count.
    """

    name = "count-encoder"

    def __init__(self, learner: Learner):
        if learner.step is None:
            raise TypeError(f"learner {learner.name} has no step for a count encoding")
        self.learner = learner
        self.state = learner.start
        self.first = learner.first
        self.count = 0
        self.anchor = self.last = self.least = None

    def on_input(self, datum: int) -> list[int]:
        self.least = datum if self.least is None else min(self.least, datum)
        self.state, hypothesis = resolve_step(self.learner, self.state, datum, None)
        out: list[int] = []
        for h in (self.first, hypothesis):
            if h is not None and h != self.last:
                self.last = h
                if self.anchor is None:
                    self.anchor = self.least
                j = 0
                while pair(j, h) <= self.count:
                    j += 1
                target = pair(j, h)
                out.extend([self.anchor] * (target - self.count))
                self.count = target
        self.first = None
        return out


def make_count_decoder_learner() -> Learner:
    """Emit the second coordinate of the item count after every item; its state is the count."""

    def step(count, item):
        return count + 1, unpair(count + 1)[1]

    return Learner.from_step("count-decoder", 0, step, "one tick per action")


def convert_pmc_to_psdT(learner: Learner) -> tuple[Learner, Callable[[], Teacher]]:
    return make_count_decoder_learner(), lambda: CountEncodingTeacher(learner)


# ---------------------------------------------------------------------------
# characteristic-sample agents


def make_pcsG_oracle_learner() -> Learner:
    """Query max+1 after each datum: inside means the unbounded member.

    A step learner with state (running max, asked): a datum raises the max
    and asks about max+1, and the answer emits 0 or the max.
    """

    def step(state, datum):
        peak, asked = state
        if asked:  # the datum is the oracle's answer about peak + 1
            return (peak, False), 0 if datum else peak
        peak = datum if peak is None else max(peak, datum)
        return (peak, True), query(peak + 1)

    return Learner.from_step("segment-prober", (None, False), step, "one tick per action")


def left_endpoint_bracket(x: int) -> int | None:
    """k when x == 2**(2k+1) + 1, else None."""
    base = x - 1
    if base < 2 or base & (base - 1):
        return None
    e = base.bit_length() - 1
    if e % 2 == 0:
        return None
    return (e - 1) // 2


class TrapTeacher(Teacher):
    """Signals the trap interval's identity with at most three emissions."""

    name = "trap-teacher"

    def __init__(self, family: PcsFFamily):
        self.family = family
        self.k: int | None = None
        self.distinct: set[int] = set()
        self.threshold: int | None = None
        self.second: int | None = None
        self.second_seen = False
        self.second_emitted = False
        self.extra: int | None = None

    def on_input(self, datum: int) -> list[int]:
        out: list[int] = []
        self.distinct.add(datum)
        if self.k is None:
            k = left_endpoint_bracket(datum)
            if k is None:
                return []
            self.k = k
            trap = self.family.trap_sets(k)
            pk = poly_eval(self.family.p_code, 2 * k + 1)
            self.threshold = 2 * pk + 1
            self.second = datum + 1
            excluded = set(trap.decoys) | {datum}
            for x in trap_interval(k).iter_increasing():
                if x not in excluded:
                    self.extra = x
                    break
            out.append(datum)
            return out
        if datum == self.second:
            self.second_seen = True
        if (
            len(self.distinct) > self.threshold
            and self.second_seen
            and not self.second_emitted
        ):
            out.append(self.second)
            self.second_emitted = True
        if datum == self.extra:
            out.append(datum)
            self.extra = None  # emit once
        return out


def make_pcsF_agents(family: PcsFFamily) -> dict:
    """Teacher pair and mind-change learner for the trap family."""
    if family.trap is not None and not family.trap.resolved:
        raise ValueError(
            f"trap search for k={family.k_star} is unresolved; agents refuse construction"
        )

    def pair_program():
        first = yield READ
        k = left_endpoint_bracket(first)
        if k is None:
            return
        yield emit(2 * k + 1)
        while True:
            yield READ
            yield emit(2 * k)

    pair_learner = Learner("trap-item-counter", pair_program)

    def pmc_program():
        seen: set[int] = set()
        k: int | None = None
        allowed: set[int] = set()
        while True:
            datum = yield READ
            seen.add(datum)
            if k is None:
                maybe = left_endpoint_bracket(datum)
                if maybe is not None and maybe <= family.max_k:
                    k = maybe
                    allowed = set(family.trap_sets(k).decoys) | {datum}
            if k is None:
                yield emit(0)
            elif seen <= allowed:
                yield emit(2 * k + 1)
            else:
                yield emit(2 * k)

    pmc_learner = Learner("trap-membership-watch", pmc_program)
    return {
        "teacher_pair": (pair_learner, lambda: TrapTeacher(family)),
        "pmc_learner": pmc_learner,
    }


def make_thm64_pcs_learner() -> Learner:
    """Least even and greatest odd decide between the two join shapes.

    A step learner with state (least even, greatest odd), each None until seen.
    """

    def step(state, datum):
        least_even, greatest_odd = state
        if datum % 2 == 0:
            least_even = datum if least_even is None else min(least_even, datum)
        else:
            greatest_odd = datum if greatest_odd is None else max(greatest_odd, datum)
        state = (least_even, greatest_odd)
        if least_even is None or greatest_odd is None:
            return state, 0
        n = least_even // 2
        m = (greatest_odd - 1) // 2
        return state, 2 * n if m == 2**n else 2 * (m + 2**n) + 1

    return Learner.from_step("join-shape-split", (None, None), step, "one tick per action")


def make_halting_psd_learner() -> Learner:
    """Initial guess 6; a lone even 2i means 2i+1, any odd means the tower."""

    def program():
        yield emit(6)
        distinct: set[int] = set()
        while True:
            datum = yield READ
            distinct.add(datum)
            odds = [x for x in distinct if x % 2 == 1]
            if odds:
                i = odds[0] // 2
                yield emit(2 ** (2**i))
            elif len(distinct) == 1:
                yield emit(next(iter(distinct)) + 1)
            else:
                yield emit(6)

    return Learner("pair-or-tower", program)


# ---------------------------------------------------------------------------
# scripted toys and the default registry


def make_constant_zero_learner() -> Learner:
    def program():
        yield emit(0)

    return Learner("constant-zero", program, "single emission")


def make_trap_parity_learner(offset: int) -> Learner:
    """Reads interval elements and emits 2k+offset for their bracket k; it keeps no state."""

    def step(state, datum):
        # least k >= 0 with datum <= 4**(k+1)
        k = max(0, ((datum - 1).bit_length() - 1) // 2)
        return None, 2 * k + offset

    name = ("trap-even-guesser", "trap-odd-guesser")[offset]
    return Learner.from_step(name, None, step, "one emit per read")


def build_default_registry() -> dict[int, Learner]:
    """The attackable learners by id; diagonalizing families take theirs by id."""
    return {
        0: make_constant_zero_learner(),
        1: make_trap_parity_learner(0),
        2: make_trap_parity_learner(1),
        3: make_csd_learner(),
        4: make_pow2_oracle_learner(),
    }
