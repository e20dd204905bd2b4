"""Full-bound command chatter in the drawer gap.

A flip is a sign change of vx or vy between consecutive ticks with
|v| > 0.9 v_max on both ticks (``behaviour_table.flips``). Linearizing the
barrier about last tick's plan unshifted flipped the semantic controller's
command 99 times over seeds 1-10 (131 non-semantic); about the shifted plan
the semantic count is 2, both on seed 9, and these bounds are the counts
measured there.
"""

import pytest

from semnav.scenario import MODE_NONSEMANTIC, MODE_SEMANTIC

from behaviour_table import drawer_gap_records, flips


@pytest.mark.parametrize("mode, bound", [(MODE_SEMANTIC, 2), (MODE_NONSEMANTIC, 52)])
def test_drawer_gap_flips_over_seeds_1_to_10(mode, bound):
    records = drawer_gap_records(mode)
    assert all(r.goal_reached for r in records)
    per_seed = [flips(r) for r in records]
    assert sum(per_seed) <= bound, f"flips per seed 1-10: {per_seed}"
