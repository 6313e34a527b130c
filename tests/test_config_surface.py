"""The fields of ``APRConfig`` are the values that runs actually vary.

The rule: a setting is a field only while two product callers (the
experiment drivers, the CLI, campaign manifests, ``examples/`` and
``benchmarks/``) need different values of it.  A value every caller
shares is a named constant, defined once (docs/tuning.md section 5 lists
the window's).  A field comes back only when two product callers need
different values; adding one without that fails here.
``equilibrate_tile_steps`` is the one field no product caller sets: the
tile pre-deformation it switches on is either wired into the runs or
deleted together with it (ROADMAP, the hematocrit item).
"""

import dataclasses

from repro.core import APRConfig

KEPT = {
    "window_spec",
    "refinement",
    "nu_bulk",
    "nu_window",
    "hematocrit",
    "tile_side",
    "rbc_diameter",
    "rbc_subdivisions",
    "maintain_interval",
    "equilibrate_tile_steps",
    "seed",
}


def test_apr_config_fields_are_the_kept_settings():
    assert {f.name for f in dataclasses.fields(APRConfig)} == KEPT
