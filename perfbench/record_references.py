"""Record the reference outputs the checks compare against.

    python3 perfbench/record_references.py

Runs, at the benchmark's sizes, the operations whose outputs have no
independent oracle (the cooling presets, the strong-probe fig1b spectrum
and the fig4d ODF spectrum) and writes ``references.json`` beside this
file.  Re-record only when an output is meant to change, and say why.
"""

import json
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads  # noqa: E402

RECORDED = {"fig3a", "fig2e", "fig2b", "fig1b", "fig4d"}


def reference(op, out):
    if op.name == "fig3a":
        rows = out["power_scan.csv"]
        return {"n_ss": rows["n_ss"], "detuning_mhz": rows["detuning_mhz"]}
    if op.name == "fig2e":
        return {"nbar": out["detuning_scan.csv"]["nbar_final"]}
    if op.name == "fig2b":
        rows = out["cooling.csv"]
        return {"t_us": rows["t_us"], "nbar": rows["nbar"]}
    if op.name == "fig1b":
        return {"rho_ee": out["spectrum.csv"]["rho_ee_numeric"]}
    return {"P_up": out["odf_spectrum.csv"]["P_up"]}


def main():
    import sys
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    refs = {}
    for table in (workloads.COOL_SCAN, workloads.COOL_LONG,
                  workloads.ANALYSIS):
        for preset, overrides, verify in table:
            if preset not in RECORDED:
                continue
            op = workloads.PresetOp(preset, overrides, verify)
            code, artifacts = op.run(os.path.join(
                workloads.ROOT, ".perfbench_out", "references", preset))
            if code != 0:
                raise SystemExit(f"{preset}: exit code {code}")
            out = workloads.read_artifacts(artifacts)
            refs[preset] = {"overrides": overrides,
                            **{k: [float(x) for x in v] for k, v in
                               reference(op, out).items()}}
            print(preset, "recorded")
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
