"""Seeded inputs for the three benchmark workloads.

The benchmark writes every file the program reads: control and experiment
CSVs for `pairvar pipeline`, and the key=value configs for `pairvar
simulate`. The program receives only those files (plus `--seed` for
`simulate`). The same seed and size always give byte-identical files.

One iteration runs every CLI command of the workload once.

The EM map count of a mixture fit depends on the data in a way no
affordable number of data sets averages out: 26 seeded 1000-pair control
sets needed 347-1106 maps. So each pipeline workload fits one fixed
control set, the same for every seed, as a lab fits its control
experiment once and applies it to many experiments; the seed draws the
experiment pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pairvar import (Scenario, ScenarioKind, VarianceForm, VarianceModel,
                     generate_dataset)

THETA = (4.84, -0.927)          # pooled exp-linear fit from the paper
BOUNDS = (7.3, 13.9)            # the CLI's default mean bounds
MEAN_RANGE = (8.0, 12.0)        # control and experiment means
STUDY_THETA = "5,-1"
BETA = 1e-6                     # the pipeline's default Berger-Boos beta
SHIFT_SD = 3.0                  # non-null experiment pairs: mean + 3 sd
REFERENCE_SEED = 0
CONTROL_SEED = 0                # the pipelines' fixed control sets

# Sizes per workload. "full" is what the benchmark measures; "quick" runs
# every workload in a few seconds for the benchmark's own tests.
SIZES = {
    "full": {
        # n = 1000 keeps each n x J E-step matrix (~3.8 MB at J = 478)
        # above the 2 MiB per-core L2, while a fit (~3.2 s, 515 maps) leaves
        # room for ten iterations in a run, so that a run's median steadies;
        # n = 2000 takes ~6 s per fit, n = 4000 20-38 s.
        "pipeline-control": {"control": 1000, "null": 1, "shifted": 1,
                             "ties": 0},
        # 10 pairs (~0.43 s each in ci_diff_region) keep an iteration near
        # 5.5 s, so a run's median is over several iterations.
        "pipeline-experiment": {"control": 300, "null": 8, "shifted": 2,
                                "ties": 2},
        "studies": {"single_reps": 100_000, "difference_reps": 50_000,
                    "power_reps": 20_000, "estimator_n": 2000,
                    "estimator_reps": 200},
    },
    "quick": {
        "pipeline-control": {"control": 200, "null": 1, "shifted": 1,
                             "ties": 0},
        "pipeline-experiment": {"control": 150, "null": 2, "shifted": 1,
                                "ties": 1},
        "studies": {"single_reps": 10_000, "difference_reps": 2_000,
                    "power_reps": 2_000, "estimator_n": 500,
                    "estimator_reps": 40},
    },
}

WORKLOADS = {
    "pipeline-control": "pairvar pipeline on a fixed 1000-pair control set "
                        "and 2 experiment pairs: the mixture EM fit dominates",
    "pipeline-experiment": "pairvar pipeline on a fixed 300-pair control set "
                           "and 10 experiment pairs: per-pair region CIs "
                           "dominate",
    "studies": "four pairvar simulate studies: the vectorised interval and "
               "p-value batch kernels, no EM",
}


@dataclass
class Command:
    """One CLI invocation and what its output must contain."""

    argv: list[str]          # subcommand first, without --out (appended)
    expect: dict = field(default_factory=dict)   # "rows": output row count


@dataclass
class Workload:
    """The commands of one iteration and the input files they read."""

    commands: list[Command]
    files: list[str]


def _int_seeds(seed: int, tag: int, count: int) -> list[int]:
    ss = np.random.SeedSequence([seed, tag])
    return [int(s.generate_state(1)[0]) for s in ss.spawn(count)]


def _write_pairs(path: Path, ids, y1, y2) -> None:
    lines = ["id,y1,y2"]
    lines += [f"{i},{float(a)!r},{float(b)!r}" for i, a, b in zip(ids, y1, y2)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _experiment_pairs(seed: int, n_null: int, n_shifted: int, n_ties: int):
    """Null pairs from generate_dataset; shifted and tied pairs with numpy.

    A shifted pair draws its second value at mu + SHIFT_SD * sd(mu), with
    the variance of that shifted mean (as the power study does). Tied
    pairs copy y1 into y2; inference commands keep them.
    """
    model = VarianceModel(VarianceForm.EXP_LINEAR, THETA)
    null_seed, shift_seed, order_seed = _int_seeds(seed, 1, 3)
    null = generate_dataset(Scenario(ScenarioKind.UNIFORM_CONTINUOUS,
                                     n=n_null, seed=null_seed,
                                     lo=MEAN_RANGE[0], hi=MEAN_RANGE[1]),
                            model, bounds=BOUNDS)
    y1 = list(null.y1)
    y2 = list(null.y2)
    for k in range(n_ties):
        y2[k] = y1[k]
    rng = np.random.default_rng(shift_seed)
    mu = rng.uniform(*MEAN_RANGE, n_shifted)
    mu2 = mu + SHIFT_SD * np.sqrt(model(mu))
    y1 += list(rng.normal(mu, np.sqrt(model(mu))))
    y2 += list(rng.normal(mu2, np.sqrt(model(mu2))))
    order = np.random.default_rng(order_seed).permutation(len(y1))
    y1 = [float(y1[i]) for i in order]
    y2 = [float(y2[i]) for i in order]
    return [f"e-{i:03d}" for i in range(len(y1))], y1, y2


def _pipeline(workload: str, seed: int, size: dict, outdir: Path):
    model = VarianceModel(VarianceForm.EXP_LINEAR, THETA)
    control_seed = _int_seeds(CONTROL_SEED, 0, 1)[0]
    experiment_seed = _int_seeds(seed, 0, 2)[1]
    control = generate_dataset(
        Scenario(ScenarioKind.UNIFORM_CONTINUOUS, n=size["control"],
                 seed=control_seed, lo=MEAN_RANGE[0], hi=MEAN_RANGE[1]),
        model, bounds=BOUNDS)
    cpath = outdir / f"{workload}-control.csv"
    epath = outdir / f"{workload}-experiment.csv"
    _write_pairs(cpath, control.ids(), control.y1, control.y2)
    ids, y1, y2 = _experiment_pairs(experiment_seed, size["null"],
                                    size["shifted"], size["ties"])
    _write_pairs(epath, ids, y1, y2)
    argv = ["pipeline", "--control", str(cpath), "--experiment", str(epath),
            "--quiet"]
    expect = {"rows": len(ids), "ids": ids, "y1": y1, "y2": y2, "beta": BETA,
              "bounds": list(BOUNDS), "control": str(cpath),
              "experiment": str(epath)}
    return Workload([Command(argv, expect)],
                    [str(cpath), str(epath)])


def _study_configs(size: dict) -> list[tuple[str, str, int, int, str]]:
    """(name, study, reps, output rows, config) of the simulate commands."""
    common = f"theta={STUDY_THETA}\n"
    cover_mu, power_mu, power_k = "7.5,9,11,13", "8,10,12", "0,1,2,3"
    n = lambda grid: len(grid.split(","))  # noqa: E731
    single, diff = size["single_reps"], size["difference_reps"]
    power, est = size["power_reps"], size["estimator_reps"]
    return [
        ("coverage-single", "coverage", single, n(cover_mu) * 2,
         common + f"mode=single\nmethods=exact,naive\n"
                  f"mu_grid={cover_mu}\nreps={single}\n"),
        ("coverage-difference", "coverage", diff, n(cover_mu) * 3,
         common + f"mode=difference\nmethods=region,bonferroni,naive\n"
                  f"mu_grid={cover_mu}\nreps={diff}\n"),
        # three tests per (mu, k) cell; one row per coefficient
        ("power", "power", power, n(power_mu) * n(power_k) * 3,
         common + f"mu_grid={power_mu}\nk_grid={power_k}\nreps={power}\n"),
        ("estimator", "estimator", est, 2,
         common + f"method=macl\nn={size['estimator_n']}\nreps={est}\n"),
    ]


def _studies(seed: int, size: dict, outdir: Path):
    commands, files = [], []
    for name, study, reps, rows, text in _study_configs(size):
        path = outdir / f"studies-{name}.cfg"
        path.write_text(text, encoding="utf-8")
        argv = ["simulate", "--study", study, "--config", str(path),
                "--seed", str(seed), "--quiet"]
        commands.append(Command(argv, {"name": name, "reps": reps,
                                       "rows": rows, "config": str(path)}))
        files.append(str(path))
    return Workload(commands, files)


def build(workload: str, seed: int, size: str, outdir: Path) -> Workload:
    """Write the inputs of one workload under outdir and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    outdir.mkdir(parents=True, exist_ok=True)
    spec = SIZES[size][workload]
    if workload == "studies":
        return _studies(seed, spec, outdir)
    return _pipeline(workload, seed, spec, outdir)
