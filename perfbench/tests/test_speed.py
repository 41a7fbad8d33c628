"""Speed normalisation on a scripted clock and reference-loop sampler."""

from perfbench import speed


def scripted(times, loops):
    times, loops = iter(times), iter(loops)
    return speed.Timeline(clock=lambda: next(times),
                          sampler=lambda: next(loops))


def test_intervals_drop_the_pause_and_scale_by_median_loop_speed():
    ref = speed.REF_LOOP_S
    # marks at t = 0, 10, 30; each sampling pause lasts 1 s; the machine
    # ran at half speed throughout, apart from one disturbed sample
    tl = scripted([0, 1, 10, 11, 30, 31], [2 * ref, 2 * ref, 9 * ref])
    tl.mark("start")
    tl.mark("e")
    tl.mark("end")
    assert tl.intervals() == [("e", 9, 4.5), ("end", 19, 9.5)]
    assert tl.total() == (28, 14)


def test_epochs_close_at_a_mark_and_skip_the_first_interval():
    ref = speed.REF_LOOP_S
    tl = scripted([0, 0, 1, 1, 2, 2, 4, 4, 7, 7], [ref] * 5)
    for label in ["start", "E", "x", "E", "end"]:
        tl.mark(label)
    assert tl.closing(("E",)) == [2]
    assert tl.closing(("x",)) == [1]
    assert tl.closing(("x", "E")) == [1, 2]
    assert tl.closing(("end",)) == [3]


def test_reference_loop_is_measured():
    assert 0 < speed.loop_seconds(reps=2) < 1
