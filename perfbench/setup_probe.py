"""Set-up probe: import eitcool.cli and validate configs, then exit.

Run in a fresh interpreter by run.py, which times it from launch to exit.
argv[1] is a JSON list of [preset, overrides] pairs.  This is the work
every ``eitcool run`` pays before its first computation.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from eitcool import cli  # noqa: E402

for preset, overrides in json.loads(sys.argv[1]):
    with open(cli.resolve_config_path(preset)) as fh:
        cli.validate_config(cli.apply_overrides(json.load(fh), overrides))
