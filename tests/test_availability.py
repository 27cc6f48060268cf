"""Uptime arithmetic: hand-derived bounds for three parameter sets, the
brute-force/closed-form equivalence on randomized schedules, and the
schedule helpers."""

import random
import re
from fractions import Fraction

import pytest

from bsa_sim.availability import (
    AvailabilityError,
    UptimeSchedule,
    availability_report,
    challenge_uptime_bound,
    dispute_slack,
    exit_window_open,
    gap_condition,
    last_exit_start,
    required_uptime,
    response_time,
    serves_all_challenges,
    stays_synced,
    sync_uptime_bound,
)

# three parameter sets with independently hand-computed bounds
PARAM_SETS = [
    # (t1, t2, t3, t_op, t_check, wsp, challenge_bound, sync_bound)
    (24, 48, 720, 1, 4, 1344, Fraction(673, 720), Fraction(4, 1344)),
    (72, 144, 4320, 6, 48, 1344, Fraction(4182, 4320), Fraction(1, 28)),
    (5, 10, 100, 2, 7, 28, Fraction(92, 100), Fraction(1, 4)),
]

SIX_DECIMALS = [
    ("0.934722", "0.002976", "0.934722"),
    ("0.968056", "0.035714", "0.968056"),
    ("0.920000", "0.250000", "0.920000"),
]


@pytest.mark.parametrize("params,expected", list(zip(PARAM_SETS, SIX_DECIMALS)))
def test_bounds_match_hand_derivation(params, expected):
    t1, t2, t3, t_op, t_check, wsp, challenge_frac, sync_frac = params
    challenge = challenge_uptime_bound(t2, t3, t_op)
    sync = sync_uptime_bound(t_check, wsp)
    assert challenge == challenge_frac
    assert sync == sync_frac
    assert required_uptime(t2, t3, t_op, t_check, wsp) == max(challenge, sync)
    assert f"{float(challenge):.6f}" == expected[0]
    assert f"{float(sync):.6f}" == expected[1]
    assert f"{float(max(challenge, sync)):.6f}" == expected[2]


def test_report_lines_format():
    report = availability_report(24, 48, 720, 1, 4, 1344)
    assert report.lines() == [
        "challenge-response uptime bound: 0.934722",
        "sync uptime bound:               0.002976",
        "required uptime:                 0.934722",
        "dispute slack (t3 - t1 - t2):    648",
        "exit window (t1 + t2 + t_op):    73",
    ]


def test_bound_guards():
    with pytest.raises(AvailabilityError):
        challenge_uptime_bound(5, 0, 1)
    with pytest.raises(AvailabilityError):
        challenge_uptime_bound(3, 100, 3)  # answering takes the whole window
    with pytest.raises(AvailabilityError):
        sync_uptime_bound(0, 100)
    with pytest.raises(AvailabilityError):
        sync_uptime_bound(101, 100)


REPORT = {"t1": 24, "t2": 48, "t3": 720, "t_op": 1, "t_check": 4, "wsp": 1344}


@pytest.mark.parametrize(
    "changed, message",
    [
        ({"t1": 0}, "t1 = 0: must be at least 1"),
        ({"t1": -24, "t_op": -1}, "t1 = -24: must be at least 1"),
        ({"t2": 0}, "t2 = 0: must be at least 1"),
        ({"t3": -5}, "t3 = -5: must be at least 1"),
        ({"t_op": -1}, "t_op = -1: must be at least 0"),
        ({"t_check": 0}, "t_check = 0: must be at least 1"),
        ({"wsp": 0}, "wsp = 0: must be at least 1"),
        ({"t2": 1, "t_op": 1}, "t2 = 1: must exceed t_op = 1"),
        ({"t_check": 1345}, "t_check = 1345: must not exceed wsp = 1344"),
        ({"t3": 60}, "t3 = 60: must exceed t1 + t2 = 72"),
        ({"t3": 72}, "t3 = 72: must exceed t1 + t2 = 72"),
    ],
    ids=["zero-t1", "negative-t1-and-t-op", "zero-t2", "negative-t3", "negative-t-op",
         "zero-t-check", "zero-wsp", "t2-not-above-t-op", "t-check-above-wsp",
         "t3-below-t1-plus-t2", "t3-equal-to-t1-plus-t2"],
)
def test_the_report_refuses_a_bad_parameter_naming_it(changed, message):
    """``availability_report`` refuses what ``bsa-sim avail`` refuses,
    naming the first parameter that breaks a rule and its value; before,
    ``t3 = 60`` gave a dispute slack of -12 and ``t1 = 0`` and
    ``t_op = -1`` were accepted."""
    with pytest.raises(AvailabilityError) as refused:
        availability_report(**{**REPORT, **changed})
    param = message.split(" = ")[0]
    assert (refused.value.param, refused.value.value) == (param, {**REPORT, **changed}[param])
    assert str(refused.value) == message


def test_the_report_accepts_the_edges():
    """``t_op`` may be 0, ``t2`` one above it, ``t3`` one above
    ``t1 + t2`` and ``t_check`` the whole period."""
    report = availability_report(t1=1, t2=1, t3=3, t_op=0, t_check=7, wsp=7)
    assert (report.sync_bound, report.slack) == (1, 1)


def test_a_bound_names_the_parameter_it_refuses():
    with pytest.raises(AvailabilityError, match=r"^t3 = 0: must be at least 1$"):
        challenge_uptime_bound(5, 0, 1)
    with pytest.raises(AvailabilityError, match=r"^t_check = 101: must not exceed wsp = 100$"):
        sync_uptime_bound(101, 100)


HALF_ON = UptimeSchedule(10, ((0, 5),))


@pytest.mark.parametrize(
    "function, args, message",
    [
        (dispute_slack, (24, 48, 60), "t3 = 60: must exceed t1 + t2 = 72"),
        (exit_window_open, (0, 24, 48, -5, 60, 1_000), "t_op = -5: must be at least 0"),
        (last_exit_start, (1_000, 24, 0), "t2 = 0: must be at least 1"),
        (response_time, (HALF_ON, 0, -3), "t_op = -3: must be at least 0"),
        (serves_all_challenges, (HALF_ON, 2, 2), "t2 = 2: must exceed t_op = 2"),
        (gap_condition, (HALF_ON, 2, 2), "t2 = 2: must exceed t_op = 2"),
        (stays_synced, (HALF_ON, 0), "wsp = 0: must be at least 1"),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_a_window_or_schedule_function_names_the_parameter_it_refuses(function, args, message):
    """Called on its own, each applies the report's rules to the
    parameters it takes."""
    with pytest.raises(AvailabilityError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_window_arithmetic():
    assert dispute_slack(24, 48, 720) == 648
    assert last_exit_start(1_000, 24, 48) == 928
    assert exit_window_open(0, 24, 48, 1, 720, 1_000)
    assert not exit_window_open(927, 24, 48, 1, 720, 1_000)
    assert exit_window_open(926, 24, 48, 1, 720, 1_000)
    assert not exit_window_open(0, 24, 48, 1, 73, 1_000)  # window must fit in t3


# -- schedules ----------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(AvailabilityError):
        UptimeSchedule(0, ())
    with pytest.raises(AvailabilityError):
        UptimeSchedule(10, ((3, 3),))
    with pytest.raises(AvailabilityError):
        UptimeSchedule(10, ((0, 11),))
    with pytest.raises(AvailabilityError):
        UptimeSchedule(10, ((0, 5), (4, 7)))


def test_schedule_queries():
    sched = UptimeSchedule(10, ((2, 5), (7, 9)))
    assert [t for t in range(10) if sched.is_online(t)] == [2, 3, 4, 7, 8]
    assert sched.is_online(12) and not sched.is_online(10)
    assert sched.uptime_fraction() == Fraction(5, 10)
    assert sched.offline_gaps() == [2, 3]  # 5..7 and the wrap 9..10..2
    assert sched.max_offline_gap() == 3
    assert sched.next_online_time(3) == 3
    assert sched.next_online_time(5) == 7
    assert sched.next_online_time(9) == 12  # wraps into the next cycle
    assert UptimeSchedule(10, ()).offline_gaps() == [10]
    with pytest.raises(AvailabilityError):
        UptimeSchedule(10, ()).next_online_time(0)


def test_response_time_cases():
    sched = UptimeSchedule(10, ((2, 5),))
    assert response_time(sched, 3, 1) == 1  # already online
    assert response_time(sched, 0, 1) == 3  # waits for slot 2
    assert response_time(sched, 6, 1) == 7  # wraps to 12
    full = UptimeSchedule(4, ((0, 4),))
    assert response_time(full, 3, 2) == 2


def test_gap_boundary_is_sharp():
    # one offline stretch of exactly 4 inside a period of 10
    sched = UptimeSchedule(10, ((0, 3), (7, 10)))
    assert sched.max_offline_gap() == 4
    assert serves_all_challenges(sched, t2=5, t_op=1)
    assert gap_condition(sched, t2=5, t_op=1)
    assert not serves_all_challenges(sched, t2=4, t_op=1)
    assert not gap_condition(sched, t2=4, t_op=1)


def test_stays_synced_boundary():
    sched = UptimeSchedule(10, ((0, 3), (7, 10)))  # max gap 4
    assert stays_synced(sched, wsp=5)
    assert not stays_synced(sched, wsp=4)


def random_schedule(rng: random.Random) -> UptimeSchedule:
    period = rng.randrange(8, 60)
    n = rng.randrange(1, 4)
    points = sorted(rng.sample(range(period + 1), min(2 * n, period + 1)))
    intervals = [
        (points[i], points[i + 1])
        for i in range(0, len(points) - 1, 2)
        if points[i] < points[i + 1]
    ]
    if not intervals:
        intervals = [(0, period)]
    return UptimeSchedule(period, tuple(intervals))


def test_simulation_agrees_with_gap_condition_on_500_schedules():
    rng = random.Random(21)
    for trial in range(500):
        sched = random_schedule(rng)
        t_op = rng.randrange(0, 4)
        t2 = t_op + rng.randrange(1, 20)
        brute = serves_all_challenges(sched, t2, t_op)
        closed = gap_condition(sched, t2, t_op)
        assert brute == closed, (trial, sched, t2, t_op)
