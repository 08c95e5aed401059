"""Pins for the scan paths served by the multisection solver.

The values were recorded with the earlier bisection solver; both refine to
scanning.BISECT_TOL, so each must agree to 1e-9.  The inversion configs
have an atom region (t_alpha > 0), so both sides of it are scanned; the
last post-selection config of each law sits 1e-6 below min U beyond the
band edge, where U has a local minimum grazing x (the laplace, t3 and
subexp ones produce a graze candidate).
"""

import numpy as np
import pytest

from hpdcover import PriorConfig, invert_lower, invert_upper, onesided_coverage_exact, post_selection_set
from hpdcover.cli import parse_dist_spec

TOL = 1e-9


INVERSION = {
    "gaussian": (
        (3.0, 0.25, 0.05),
        [
            ("upper", 4.0, [1.8757693358327376], [2]),
            ("upper", 6.0, [4.306971827706443], [2]),
            ("upper", -5.0, [-6.959659071311423], [1]),
            ("upper", 4.998714304358258, [3.071127573185647], [2]),
            ("lower", -4.0, [-1.875769335832738], [4]),
            ("lower", -6.0, [-4.306971827706443], [4]),
            ("lower", 5.0, [6.959659071311421], [1]),
        ],
    ),
    "laplace": (
        (3.0, 0.25, 0.05),
        [
            ("upper", 4.0, [0.9350810856609619], [2]),
            ("upper", 6.0, [3.2862170882625126], [2]),
            ("upper", -5.0, [-7.9289188886849455], [1]),
            ("upper", 5.948365198298978, [3.1696129554711128], [2]),
            ("lower", -4.0, [-0.9350810856609628], [4]),
            ("lower", -6.0, [-3.2862170882625126], [4]),
            ("lower", 5.0, [7.9289188886849455], [1]),
        ],
    ),
    "t3": (
        (5.0, 0.25, 0.05),
        [
            ("upper", 6.0, [1.7307687309640265], [2]),
            ("upper", 8.0, [2.4611380135890393], [2]),
            ("upper", -7.0, [-10.014790457175401], [1]),
            ("upper", 8.252334722315137, [2.5773757483858724, 4.628153241053816, 5.305215464197071], [2, 2, 2]),
            ("lower", -6.0, [-1.7307687309640265], [4]),
            ("lower", -8.0, [-2.4611380135889425], [4]),
            ("lower", 7.0, [10.014790457175383], [1]),
        ],
    ),
    "subexp:0.5": (
        (20.0, 0.25, 0.2),
        [
            ("upper", 21.0, [-9.409497426229056, -2.1681002211032143, 1.330972384628089], [3, 3, 2]),
            ("upper", 23.0, [-7.389257682046615, -3.7686419853883844, 1.6237277168439808], [3, 3, 2]),
            ("upper", -22.0, [-28.31736730080165], [1]),
            ("upper", 28.40670989384372, [3.0517958338629234, 20.80351157139458, 21.592081913549254], [3, 2, 2]),
            ("lower", -21.0, [-1.330972384628089, 2.1681002211032143, 9.409497426229038], [4, 3, 3]),
            ("lower", -23.0, [-1.6237277168439808, 3.76864198538841, 7.389257682046658], [4, 3, 3]),
            ("lower", 22.0, [28.317367300801628], [1]),
        ],
    ),
}
POST_SELECTION = {
    "gaussian": [
        (0.5, 1.5, [(-0.6205381145430511, 3.4474186730822525)]),
        (2.0, -3.3, [(-5.255382942283246, -0.31141464693325355)]),
        (5.0, 6.5, [(4.190332336941571, 8.45775531979897)]),
        (5.0, 6.959962985198756, [(4.999998482863083, 8.919566617837521)]),
    ],
    "laplace": [
        (0.5, 1.5, [(-1.6061722877853568, 4.378683184104224)]),
        (2.0, -3.3, [(-6.159819081442157, 1.1463316027967074)]),
        (5.0, 6.5, [(-1.0350241821719868, 9.383702887788054)]),
        (5.0, 7.996593500395057, [(0.0008615980056822089, 10.96831124214215)]),
    ],
    "t3": [
        (0.5, 1.5, [(-1.8056092810064273, 4.5414914040180365)]),
        (2.0, -3.3, [(-6.260987006594998, 1.4973638309003765)]),
        (5.0, 6.5, [(-2.693015228191316, 9.457983895542661)]),
        (5.0, 8.236196453628608, [(-2.2229582854051837, 11.330121876701632)]),
    ],
    "subexp:0.5": [
        (0.5, 1.5, [(-21.03358172581094, 23.589022457812888)]),
        (2.0, -3.3, [(-24.339984241069672, 19.34806774406787)]),
        (5.0, 6.5, [(-16.55167092739918, 26.052352247917646)]),
        (5.0, 32.45316974683144, [(-2.2981641061672753, 54.61943318795281)]),
    ],
}
ONESIDED = {
    "gaussian": [(2.5, 0.9710718381450919), (4.0, 0.9487830125448503), (7.0, 0.949455186180158)],
    "laplace": [(2.5, 0.9648826059612284), (4.0, 0.9732824837854774), (7.0, 0.9314943163763258)],
    "t3": [(2.5, 0.9633548175761264), (4.0, 0.9713614029166991), (7.0, 0.9315441383821755)],
    "subexp:0.5": [(2.5, 0.9543800781991834), (4.0, 0.9588391160201587), (7.0, 0.9641120995452827)],
}


@pytest.mark.parametrize("law", sorted(INVERSION))
def test_inversion_pins(law):
    (lam, w, alpha), rows = INVERSION[law]
    cfg = PriorConfig(parse_dist_spec(law), lam, w, alpha)
    assert cfg.t_alpha > 0.0
    for kind, target, roots, regimes in rows:
        inv = (invert_upper if kind == "upper" else invert_lower)(cfg, target)
        assert len(inv.roots) == len(roots), (kind, target, inv.roots)
        assert np.max(np.abs(np.array(inv.roots) - roots)) <= TOL
        assert [int(r) for r in inv.regimes] == regimes


@pytest.mark.parametrize("law", sorted(POST_SELECTION))
def test_post_selection_pins(law):
    for lam, x, intervals in POST_SELECTION[law]:
        got = post_selection_set(PriorConfig(parse_dist_spec(law), lam, 1.0, 0.05), x).intervals
        assert len(got) == len(intervals), (lam, x, got)
        assert np.max(np.abs(np.array(got) - np.array(intervals))) <= TOL


@pytest.mark.parametrize("law", sorted(ONESIDED))
def test_onesided_coverage_pins(law):
    cfg = PriorConfig(parse_dist_spec(law), 2.0, 1.0, 0.05)
    for theta0, c in ONESIDED[law]:
        assert abs(onesided_coverage_exact(cfg, theta0) - c) <= TOL
