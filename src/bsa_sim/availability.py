"""Oracle availability arithmetic.

All quantities here share one abstract time unit (the callers pick
hours, blocks, or slots, as long as they are consistent).  Two separate
duties bound how little an arbitration oracle may be online:

* answering challenges: any challenge must be answered within the
  dispute delay, and answering takes ``t_op`` of processing once the
  oracle wakes, so no offline stretch may exceed ``t2 - t_op``.
  Repeating that worst stretch once per governance period ``t3`` gives
  the minimal uptime fraction ``(t3 - (t2 - t_op)) / t3``.
* staying synced: self-resync after downtime only works below the weak
  subjectivity period, and each resync costs ``t_check`` online time,
  for a floor of ``t_check / wsp``.

The binding requirement is the larger of the two.  ``check_parameters``
holds every rule on the parameters, which each function here applies
to the ones it takes, so that a refusal names its parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .registry import timelock_relation_holds


class AvailabilityError(Exception):
    """A refused schedule, or a refused ``param`` and its ``value``."""

    def __init__(self, reason: str, param: str | None = None, value: int | None = None):
        super().__init__(reason if param is None else f"{param} = {value}: {reason}")
        self.reason, self.param, self.value = reason, param, value


def check_parameters(**p: int) -> None:
    """Raise ``AvailabilityError`` for the first of the given parameters
    that breaks a rule, each rule checked when all it names are given:
    each at least 1 (``t_op`` at least 0), ``t2`` above ``t_op``,
    ``t_check`` at most ``wsp``, and ``t3`` above ``t1 + t2``, the
    scenario rule at one slot per block."""
    for name, value in p.items():
        if value < (least := 0 if name == "t_op" else 1):
            raise AvailabilityError(f"must be at least {least}", name, value)
    if {"t2", "t_op"} <= p.keys() and p["t2"] <= p["t_op"]:
        raise AvailabilityError(f"must exceed t_op = {p['t_op']}", "t2", p["t2"])
    if {"t_check", "wsp"} <= p.keys() and p["t_check"] > p["wsp"]:
        raise AvailabilityError(f"must not exceed wsp = {p['wsp']}", "t_check", p["t_check"])
    t1, t2, t3 = p.get("t1"), p.get("t2"), p.get("t3")
    if None not in (t1, t2, t3) and not timelock_relation_holds(t1, t2, t3, slots_per_block=1):
        raise AvailabilityError(f"must exceed t1 + t2 = {t1 + t2}", "t3", t3)


def challenge_uptime_bound(t2: int, t3: int, t_op: int) -> Fraction:
    """Infimum uptime fraction that still serves every challenge."""
    check_parameters(t2=t2, t3=t3, t_op=t_op)
    return Fraction(t3 - (t2 - t_op), t3)


def sync_uptime_bound(t_check: int, wsp: int) -> Fraction:
    """Infimum uptime fraction that keeps the light client synced."""
    check_parameters(t_check=t_check, wsp=wsp)
    return Fraction(t_check, wsp)


def required_uptime(t2: int, t3: int, t_op: int, t_check: int, wsp: int) -> Fraction:
    return max(challenge_uptime_bound(t2, t3, t_op), sync_uptime_bound(t_check, wsp))


def dispute_slack(t1: int, t2: int, t3: int) -> int:
    """How much of the governance delay remains after a full dispute."""
    check_parameters(t1=t1, t2=t2, t3=t3)
    return t3 - (t1 + t2)


def exit_window_open(
    now: int, t1: int, t2: int, t_op: int, t3: int, version_expiry: int
) -> bool:
    """A depositor can still start a unilateral exit and finish any
    dispute before both the governance delay and the version expiry."""
    check_parameters(t1=t1, t2=t2, t_op=t_op, t3=t3)
    window = t1 + t2 + t_op
    return window < t3 and now + window < version_expiry


def last_exit_start(version_expiry: int, t1: int, t2: int) -> int:
    """Latest time an exit can begin and still resolve pre-expiry."""
    check_parameters(t1=t1, t2=t2)
    return version_expiry - (t1 + t2)


# ---------------------------------------------------------------------------
# schedule simulation


@dataclass(frozen=True)
class UptimeSchedule:
    """A periodic on/off pattern: half-open online intervals within one
    repeating cycle."""

    period: int
    online: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.period <= 0:
            raise AvailabilityError("period must be positive")
        last_end = 0
        for start, end in self.online:
            if not (0 <= start < end <= self.period):
                raise AvailabilityError(f"bad interval ({start}, {end})")
            if start < last_end:
                raise AvailabilityError("intervals must be sorted and disjoint")
            last_end = end

    def is_online(self, t: int) -> bool:
        phase = t % self.period
        return any(start <= phase < end for start, end in self.online)

    def uptime_fraction(self) -> Fraction:
        return Fraction(sum(end - start for start, end in self.online), self.period)

    def next_online_time(self, t: int) -> int:
        """First instant at or after t where the schedule is online."""
        if not self.online:
            raise AvailabilityError("schedule is never online")
        phase = t % self.period
        for start, end in self.online:
            if phase < end:
                return t + max(0, start - phase)
        return t + (self.period - phase) + self.online[0][0]

    def offline_gaps(self) -> list[int]:
        """Lengths of the maximal offline stretches, including the one
        wrapping around the cycle boundary."""
        if not self.online:
            return [self.period]
        gaps = []
        for (_, prev_end), (next_start, _) in zip(self.online, self.online[1:]):
            gaps.append(next_start - prev_end)
        wrap = (self.period - self.online[-1][1]) + self.online[0][0]
        gaps.append(wrap)
        return [g for g in gaps if g > 0] or [0]

    def max_offline_gap(self) -> int:
        return max(self.offline_gaps(), default=0)


def response_time(schedule: UptimeSchedule, challenge_at: int, t_op: int) -> int:
    """Delay from challenge to resolution: wait for the oracle to wake,
    then one processing pass."""
    check_parameters(t_op=t_op)
    wake = schedule.next_online_time(challenge_at)
    return (wake - challenge_at) + t_op


def serves_all_challenges(schedule: UptimeSchedule, t2: int, t_op: int) -> bool:
    """Brute force over every integer challenge offset in one cycle."""
    check_parameters(t2=t2, t_op=t_op)
    return all(
        response_time(schedule, c, t_op) <= t2 for c in range(schedule.period)
    )


def gap_condition(schedule: UptimeSchedule, t2: int, t_op: int) -> bool:
    """Closed-form equivalent of :func:`serves_all_challenges`."""
    check_parameters(t2=t2, t_op=t_op)
    return schedule.max_offline_gap() <= t2 - t_op


def stays_synced(schedule: UptimeSchedule, wsp: int) -> bool:
    """Self-resync stays possible while every offline stretch is shorter
    than the weak subjectivity period."""
    check_parameters(wsp=wsp)
    return schedule.max_offline_gap() < wsp


@dataclass(frozen=True)
class AvailabilityReport:
    challenge_bound: Fraction
    sync_bound: Fraction
    required: Fraction
    slack: int
    exit_window: int

    def lines(self) -> list[str]:
        return [
            f"challenge-response uptime bound: {float(self.challenge_bound):.6f}",
            f"sync uptime bound:               {float(self.sync_bound):.6f}",
            f"required uptime:                 {float(self.required):.6f}",
            f"dispute slack (t3 - t1 - t2):    {self.slack}",
            f"exit window (t1 + t2 + t_op):    {self.exit_window}",
        ]


def availability_report(
    t1: int, t2: int, t3: int, t_op: int, t_check: int, wsp: int
) -> AvailabilityReport:
    check_parameters(t1=t1, t2=t2, t3=t3, t_op=t_op, t_check=t_check, wsp=wsp)
    return AvailabilityReport(
        challenge_bound=challenge_uptime_bound(t2, t3, t_op),
        sync_bound=sync_uptime_bound(t_check, wsp),
        required=required_uptime(t2, t3, t_op, t_check, wsp),
        slack=dispute_slack(t1, t2, t3),
        exit_window=t1 + t2 + t_op,
    )
