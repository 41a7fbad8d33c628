"""Oracle verification suite for enumerable discrete instances.

Every check compares a production code path against an independent exact
computation (backward-recursion tables, direct path enumeration, or
empirical frequencies with known targets).
"""

from dataclasses import replace

import numpy as np

from . import metrics, softq
from .discrete import state_index
from .errors import UnreachableTransitionError
from .estep import search_step_batch
from .numkit import RngStream


def tv_distance(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def resampled_next_state_tv(policy, reward, tables, xt, t, ecfg, rng,
                            repeats):
    """TV between the empirical resampled next-state distribution and the
    exact tilted policy at (xt, t). Repeats run as one vectorized batch."""
    succ_states, probs = tables.tilted_policy(xt, t)
    K = tables.denoiser.K
    slot = np.full(tables.states.shape[0], -1)
    slot[state_index(succ_states, K)] = np.arange(probs.size)
    X = np.broadcast_to(np.asarray(xt, dtype=np.int64),
                        (repeats, len(xt))).copy()
    nxt, _ = search_step_batch(policy, reward, X, t, ecfg, rng)
    j = slot[state_index(nxt, K)]
    if np.any(j < 0):
        raise UnreachableTransitionError(
            "resampled next state outside the exact tilted support")
    counts = np.bincount(j, minlength=probs.size)
    return tv_distance(counts / repeats, probs)


def tv_trend_over_particles(policy, reward, tables, xt, t, ecfg, seeds,
                            particle_grid=(1, 4, 16, 64), repeats=2000,
                            seed0=0):
    """Mean TV per particle count, averaged over seeds."""
    means = []
    for m in particle_grid:
        cfg_m = replace(ecfg, particles=m)
        vals = [resampled_next_state_tv(
                    policy, reward, tables, xt, t, cfg_m,
                    RngStream(seed0 + s, stream=m), repeats)
                for s in range(seeds)]
        means.append(float(np.mean(vals)))
    return list(particle_grid), means


def run_suite(policy, pretrained, reward, ecfg, repeats=4000, seeds=5):
    """All oracle-backed invariants; returns a list of report rows."""
    sc = policy.schedule
    rows = []

    def add(name, ok, value):
        rows.append({"name": name, "ok": bool(ok), "value": value})

    tables = softq.ExactSoftTables(sc, pretrained.denoiser, reward,
                                   ecfg.softq)

    resid = tables.bellman_residual()
    add("soft_bellman_self_consistency", resid <= 1e-10, resid)

    term = float(np.max(np.abs(tables.q[1]
                               - tables.reward_vec[tables.dst[1]])))
    add("terminal_q_equals_reward", term == 0.0, term)
    add("terminal_value_zero", float(np.max(np.abs(tables.V[0]))) == 0.0,
        float(np.max(np.abs(tables.V[0]))))

    bounds = softq.check_bounds(tables)
    add(f"soft_q_bounds_gamma_{ecfg.gamma:g}", bounds["ok"],
        bounds["violations"])
    if ecfg.gamma == 1.0:
        tables_g1, b1 = tables, bounds
    else:
        tables_g1 = softq.ExactSoftTables(
            sc, pretrained.denoiser, reward, softq.SoftQConfig(ecfg.alpha, 1.0))
        b1 = softq.check_bounds(tables_g1)
        add("soft_q_bounds_gamma_1", b1["ok"], b1["violations"])
    gap = float(np.max(np.abs(b1["rows"]["upper"] - b1["rows"]["lower"]),
                       initial=0.0))
    add("bounds_collapse_at_gamma_1", gap <= 1e-9, gap)

    dp = metrics.elbo_exact_tabular(tables_g1)
    path = metrics.elbo_by_path_enumeration(pretrained, tables_g1, ecfg.alpha)
    add("elbo_gamma1_matches_path_enumeration", abs(dp - path) <= 1e-10,
        abs(dp - path))

    big = softq.SoftQConfig(1e6, ecfg.gamma)
    tables_big = softq.ExactSoftTables(sc, pretrained.denoiser, reward, big)
    expect = softq.prior_expectation(tables_big, tables_big.reward_vec,
                                     ecfg.gamma)
    v_err = float(np.max(np.abs(tables_big.V[1:] - expect[1:])))
    add("high_temperature_value_limit", v_err <= 1e-3, v_err)

    xt = np.full(policy.L, policy.K, dtype=np.int64)  # fully masked at t=1
    tv = resampled_next_state_tv(pretrained, reward, tables, xt, 1,
                                 replace(ecfg, particles=64),
                                 RngStream(20_000), repeats)
    add("resampled_tv_at_final_step", tv < 0.05, tv)

    grid, means = tv_trend_over_particles(pretrained, reward, tables, xt, 1,
                                          ecfg, seeds=seeds, repeats=repeats // 2)
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a)
    add("tv_decreases_with_particles", inversions <= 1,
        {"grid": grid, "tv": means})

    return rows


def format_report(rows):
    lines = []
    for r in rows:
        status = "PASS" if r["ok"] else "FAIL"
        lines.append(f"{status} {r['name']} value={r['value']!r}")
    ok = all(r["ok"] for r in rows)
    lines.append(f"{'PASS' if ok else 'FAIL'} overall")
    return "\n".join(lines) + "\n"
