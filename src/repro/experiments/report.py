"""Markdown report generation for the evaluation suite.

``generate_report`` runs any subset of the E/A experiments and renders
one self-contained markdown document (the machinery behind the
recorded-output section of ``EXPERIMENTS.md`` and the CLI's
``keddah experiment ... --markdown``).  The full report (no ids) ends
with the recorded workload-plan captures: each is a ``keddah capture
--plan`` command and the output the CLI prints for it.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.experiments import figures

_DESCRIPTIONS: Dict[str, str] = {
    "e01": "Traffic volume breakdown by component per job type",
    "e02": "Total traffic vs input size",
    "e03": "Flow size CDFs per component with fitted distributions",
    "e04": "Flow inter-arrival CDFs per component with fits",
    "e05": "Best-fit distribution table per (job, component, metric)",
    "e06": "Flow count scaling vs input size and reducer count",
    "e07": "HDFS write traffic vs replication factor",
    "e08": "Flow-size population vs block size",
    "e09": "Scheduler comparison with concurrent jobs",
    "e10": "Model validation: synthetic vs captured populations",
    "e11": "Replay validation: captured vs generated traffic",
    "e12": "Traffic and completion time vs cluster size",
    "e13": "Node-failure recovery traffic",
    "e14": "Multi-tenant interference vs isolated runs",
    "e15": "Traffic over time (phase profile)",
    "e16": "Leave-one-out cross-validation of scaling laws",
    "e17": "Replay under background cross-traffic (interference)",
    "e18": "Model fidelity vs number of training input sizes",
    "e19": "Flow summary statistics per (job, component)",
    "e20": "Capture sampling (1-in-N) vs model input fidelity",
    "a1": "Ablation: locality-aware map binding",
    "a2": "Ablation: reducer slow-start",
    "a3": "Ablation: max-min sharing vs uncontended bound",
    "a4": "Ablation: delay scheduling (locality wait)",
    "a5": "Ablation: speculative execution under stragglers",
}


#: (section title, ``keddah capture`` arguments, output file name).
PLAN_CAPTURES: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("TPCx-HS chain (scale 1, 4 nodes, seed 42)",
     ("--plan", "tpcx-hs", "--scale", "1", "--nodes", "4", "--reducers", "2",
      "--seed", "42"), "hs.jsonl"),
    ("Pig aggregation chain (1 GiB, 8 nodes, seed 42)",
     ("--plan", "pig-aggregation", "--plan-param", "input_gb=1.0",
      "--nodes", "8", "--seed", "42"), "pig.jsonl"),
)


def plan_capture_section(title: str, args: Sequence[str],
                         output: str) -> List[str]:
    """Run ``keddah capture ARGS -o OUTPUT``; its markdown section.

    The trace and a fresh capture store go to a scratch directory, so
    the capture is always simulated whatever ``$KEDDAH_CAPTURE_STORE``
    holds; the recorded command and output name the bare ``OUTPUT``.
    """
    from repro.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / output)
        store = str(Path(scratch) / "store")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = main(["capture", *args, "--store", store, "-o", path])
        if status != 0:
            raise RuntimeError(f"keddah capture {' '.join(args)} exited "
                               f"{status}: {printed.getvalue()}")
    command = " ".join(["$ keddah capture", *args, "-o", output])
    return [f"## Workload plans — {title}", "", "```", command,
            printed.getvalue().replace(path, output).rstrip("\n"), "```", ""]


def generate_report(ids: Optional[Sequence[str]] = None,
                    title: str = "Keddah evaluation report") -> str:
    """Run experiments and return the markdown document.

    Without ``ids`` every experiment runs, followed by the
    :data:`PLAN_CAPTURES` sections.
    """
    selected = sorted(figures.ALL_EXPERIMENTS) if ids is None else list(ids)
    unknown = [i for i in selected if i not in figures.ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")
    sections: List[str] = [f"# {title}", ""]
    for experiment_id in selected:
        description = _DESCRIPTIONS.get(experiment_id, "")
        sections.append(f"## {experiment_id.upper()} — {description}")
        sections.append("")
        sections.append("```")
        for table in figures.ALL_EXPERIMENTS[experiment_id]():
            sections.append(render_table(table))
            sections.append("")
        sections.append("```")
        sections.append("")
    if ids is None:
        for plan_title, args, output in PLAN_CAPTURES:
            sections.extend(plan_capture_section(plan_title, args, output))
    return "\n".join(sections)


def write_report(path: str | Path, ids: Optional[Sequence[str]] = None,
                 title: str = "Keddah evaluation report") -> Path:
    """Write :func:`generate_report` output to ``path``."""
    path = Path(path)
    path.write_text(generate_report(ids, title=title), encoding="utf-8")
    return path
