"""The output check rejects what a broken run leaves behind."""

import pytest

from perfbench import checks

HEADER = "epoch,elbo,elbo_kind,mean_reward,reward_std\n"


def csv_text(epochs, kind="exact-tabular", rewards=None):
    rewards = rewards or [0.1 + 0.1 * e for e in epochs]
    return HEADER + "".join(f"{e},-1.5,{kind},{r!r},0.25\n"
                            for e, r in zip(epochs, rewards))


def test_accepts_a_complete_run():
    checks.check_metrics_csv(csv_text(range(6)), 5, "exact-tabular")


def test_epoch_zero_may_lack_a_sampled_estimator():
    text = HEADER + "0,nan,none,0.1,0.2\n1,-2.0,surrogate-is,0.3,0.2\n"
    checks.check_metrics_csv(text, 1, "surrogate-is")


def test_rejects_truncated():
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_metrics_csv(csv_text(range(5)), 5, "exact-tabular")


def test_rejects_duplicated_rows_after_resume():
    # resuming epoch 2 of a finished 5-epoch run appends 3, 4, 5 again
    text = csv_text([0, 1, 2, 3, 4, 5, 3, 4, 5])
    with pytest.raises(checks.CheckFailed):
        checks.check_metrics_csv(text, 5, "exact-tabular")
    # same row count as a good run, but an epoch repeated
    with pytest.raises(checks.CheckFailed, match="epoch"):
        checks.check_metrics_csv(csv_text([0, 1, 2, 2, 4, 5]), 5,
                                 "exact-tabular")


@pytest.mark.parametrize("text, why", [
    (csv_text(range(3), rewards=[0.1, float("nan"), 0.5]), "mean_reward"),
    (csv_text(range(3), rewards=[0.5, 0.6, 0.4]), "below"),
    (csv_text(range(3), kind="surrogate-is"), "elbo_kind"),
])
def test_rejects_bad_values(text, why):
    with pytest.raises(checks.CheckFailed, match=why):
        checks.check_metrics_csv(text, 2, "exact-tabular")


def test_align_dir_rejects_abort(tmp_path):
    (tmp_path / "metrics.csv").write_text(csv_text(range(3)))
    assert checks.check_align_dir(tmp_path, 2, "exact-tabular")
    (tmp_path / "abort.txt").write_text("non-finite gradient\n")
    with pytest.raises(checks.CheckFailed, match="abort"):
        checks.check_align_dir(tmp_path, 2, "exact-tabular")


def test_oracle_report_must_pass_overall(tmp_path):
    report = tmp_path / "oracle_report.txt"
    report.write_text("PASS a value=0.0\nPASS overall\n")
    checks.check_oracle_dir(tmp_path)
    report.write_text("FAIL a value=0.1\nFAIL overall\n")
    with pytest.raises(checks.CheckFailed, match="FAIL a"):
        checks.check_oracle_dir(tmp_path)
