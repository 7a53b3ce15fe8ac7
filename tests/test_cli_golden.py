"""Byte-level record of the command-line front end.

Each request runs in process through `looptop.cli.run`.  Its exit code and
the sha256 of its stdout and of its stderr are pinned; stderr is also
captured through `redirect_stderr`, so argparse"s own usage messages count.
The corpus covers every command in both formats, the window, grammar and
usage errors, the cell cap, the Lyndon walk guard, a cobar cutoff of 25,
the `--deep` flag that no longer exists, each refusal of a form of rank
below 2, two requests at Betti number 100, the loop-homology series of
every family through the cobar audit or `hilbert`, the cobar torsion
path (promoted pivots and transposed spots, invariants 2 and 30, Z/9),
the byte boundary of the cobar store (`cw:2:0,127;127,0` and
`cw:2:0,-128;-128,0` reach a narrow store through `verify cobar`, because
their content, 127 and 128, is factored out before the build, which leaves
the unimodular complex; a wide store, whose values are a list, is still
reached through the unimodular `cw:2:128,127;127,126`, which does not fit
a byte, and through the direct builds of `test_cobar.py`, where
`cw:2:0,-128;-128,0` keeps its content), and
the sphere counts of each one-relator family at larger windows (n = 4, a
report past the witness limit, mixed sphere degrees, a skew torsion form),
and the closed-form Lie rank that every form report checks at large
windows: `manifold --n 2 --betti 3 --max-dim 300` and the odd-n skew form
`cw --n 3 --matrix "0,1,0,0;-1,0,0,0;0,0,0,1;0,0,-1,0" --max-dim 600`,
the necklace counts of `verify counts --space csum:2x3,2x3` at degree 400,
whose letters have degrees 1 and 2, `hilbert` at Betti number 2000, and
the `--help` text of the program and of each subcommand.

A digest changes only with a deliberate change of output.  Run this file as
a script (`PYTHONPATH=src python tests/test_cli_golden.py`) to print the
current digests of the entries that differ from `GOLDEN`, so a re-record
shows exactly what moved.
"""

import hashlib
import io
import os
import runpy
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from looptop.cli import run

SHOWCASE = Path(__file__).resolve().parents[1] / "scripts" / "showcase_reports.py"
SHOWCASE_SHA256 = "a75127aa66762cab2fc2252721b50035abc070c358d643d3b3cb037f161cccf5"

# (id, argv, extra environment)
REQUESTS = (
    ("manifold", ["manifold", "--n", "2", "--betti", "3", "--max-dim", "6"], {}),
    ("manifold-json", ["manifold", "--n", "2", "--betti", "3", "--max-dim", "6", "--format", "json"], {}),
    ("manifold-matrix", ["manifold", "--n", "3", "--betti", "2", "--matrix", "0,1;-1,0", "--max-dim", "8"], {}),
    ("manifold-betti1", ["manifold", "--n", "2", "--betti", "1"], {}),
    ("csum", ["connected-sum", "--factors", "2x3,2x3", "--signs", "+,-", "--max-dim", "6"], {}),
    ("csum-json", ["connected-sum", "--factors", "2x3,2x3", "--signs=+,-", "--max-dim", "6", "--format", "json"], {}),
    ("cw", ["cw", "--n", "2", "--matrix", "0,7;7,0", "--max-dim", "6"], {}),
    ("cw-json", ["cw", "--n", "2", "--matrix", "0,7;7,0", "--max-dim", "6", "--format", "json"], {}),
    ("cw-rank3", ["cw", "--n", "2", "--matrix", "0,1,0;1,0,0;0,0,2", "--max-dim", "4"], {}),
    # the letter order: plane (1, 2), plane (0, 2), a skew plane (0, 2), and
    # a form whose coordinate planes are all singular (the projection branch)
    ("cw-plane-1-2", ["cw", "--n", "2", "--matrix", "1,1,0;1,1,1;0,1,0", "--max-dim", "5"], {}),
    ("cw-plane-0-2", ["cw", "--n", "2", "--matrix", "0,0,1;0,0,2;1,2,0", "--max-dim", "5"], {}),
    ("cw-skew-plane-0-2", ["cw", "--n", "3", "--matrix", "0,0,1,0;0,0,0,1;-1,0,0,0;0,-1,0,0", "--max-dim", "7"], {}),
    ("cw-projected-plane", ["cw", "--n", "2", "--matrix", "1,1,1;1,1,-1;1,-1,1", "--max-dim", "5"], {}),
    ("betti-one", ["betti-one", "--n", "4", "--m", "4"], {}),
    ("betti-one-json", ["betti-one", "--n", "8", "--m", "3", "--format", "json"], {}),
    ("betti-one-v8", ["betti-one", "--n", "4", "--m", "1"], {}),
    ("verify-cobar", ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "6"], {}),
    ("verify-cobar-json", ["verify", "cobar", "--space", "manifold:2:2", "--max-degree", "6", "--format", "json"], {}),
    ("verify-cobar-torsion", ["verify", "cobar", "--space", "cw:2:0,3;3,0", "--max-degree", "5"], {}),
    ("verify-cobar-torsion-json", ["verify", "cobar", "--space", "cw:2:0,3;3,0", "--max-degree", "5", "--format", "json"], {}),
    ("verify-counts", ["verify", "counts", "--space", "csum:2x3,2x3", "--max-degree", "10"], {}),
    ("verify-counts-json", ["verify", "counts", "--space", "csum:2x3,2x3", "--max-degree", "10", "--format", "json"], {}),
    ("hilbert", ["hilbert", "--space", "manifold:2:3", "--max-degree", "10"], {}),
    ("hilbert-json", ["hilbert", "--space", "manifold:2:3", "--max-degree", "10", "--format", "json"], {}),
    ("lie-basis", ["lie-basis", "--space", "manifold:2:3", "--max-degree", "5"], {}),
    ("lie-basis-json", ["lie-basis", "--space", "csum:2x3,2x3", "--max-degree", "4", "--format", "json"], {}),
    ("moore", ["moore", "--space", "cw:2:0,1,0;1,0,0;0,0,2"], {}),
    ("moore-json", ["moore", "--space", "betti1:4:7", "--format", "json"], {}),
    ("hilbert-degree-minus-1", ["hilbert", "--space", "manifold:2:3", "--max-degree", "-1"], {}),
    ("hilbert-degree-0", ["hilbert", "--space", "manifold:2:3", "--max-degree", "0"], {}),
    ("counts-degree-0", ["verify", "counts", "--space", "manifold:2:3", "--max-degree", "0"], {}),
    ("lie-basis-degree-0", ["lie-basis", "--space", "manifold:2:3", "--max-degree", "0"], {}),
    ("manifold-max-dim-1", ["manifold", "--n", "2", "--betti", "3", "--max-dim", "1"], {}),
    ("unknown-family", ["moore", "--space", "torus:1:1"], {}),
    ("bad-signs", ["connected-sum", "--factors", "2x3,2x3", "--signs", "+,x"], {}),
    ("bad-matrix-entry", ["cw", "--n", "2", "--matrix", "0,x;1,0"], {}),
    ("missing-flag", ["manifold", "--n", "2"], {}),
    ("no-command", [], {}),
    ("bad-choice", ["verify", "homology", "--space", "manifold:2:3"], {}),
    ("bad-int", ["hilbert", "--space", "manifold:2:3", "--max-degree", "x"], {}),
    ("invalid-manifold", ["manifold", "--n", "3", "--betti", "3"], {}),
    ("cw-rank-below-2", ["cw", "--n", "2", "--matrix", "0,0;0,0"], {}),
    ("cw-one-cell", ["cw", "--n", "2", "--matrix", "1"], {}),
    ("counts-betti-one", ["verify", "counts", "--space", "manifold:2:1"], {}),
    ("hilbert-rank-one", ["hilbert", "--space", "cw:2:1"], {}),
    ("cell-cap", ["verify", "cobar", "--space", "manifold:2:3", "--max-degree", "8"], {"LOOPTOP_MAX_CELLS": "50"}),
    ("bad-cell-cap", ["verify", "cobar", "--space", "manifold:2:2"], {"LOOPTOP_MAX_CELLS": "lots"}),
    ("walk-guard", ["lie-basis", "--space", "manifold:2:3", "--max-degree", "14"], {}),
    ("cobar-degree-25", ["verify", "cobar", "--space", "betti1:8:0", "--max-degree", "25"], {}),
    ("stale-deep-flag", ["verify", "cobar", "--space", "betti1:8:0", "--max-degree", "25", "--deep"], {}),
    # the rank-2 refusals of classify, bad primes and the relation, a
    # degenerate form with r >= 3 that is still answered, and a connected
    # sum of even total dimension, whose form is symmetric
    ("moore-cw-rank-below-2", ["moore", "--space", "cw:2:0,0;0,0"], {}),
    ("moore-cw-degenerate-rank3", ["moore", "--space", "cw:2:0,0,0;0,0,0;0,0,0"], {}),
    ("verify-cobar-rank-below-2", ["verify", "cobar", "--space", "cw:2:0,0;0,0", "--max-degree", "4"], {}),
    ("counts-rank-one", ["verify", "counts", "--space", "cw:2:2,0;0,0"], {}),
    ("lie-basis-csum-even", ["lie-basis", "--space", "csum:2x4,3x3:signs=+,-", "--max-degree", "6", "--format", "json"], {}),
    # a large Betti number: the report checks by necklace counts, with no witnesses
    ("manifold-betti-100", ["manifold", "--n", "2", "--betti", "100", "--max-dim", "25", "--format", "json"], {}),
    ("counts-betti-100", ["verify", "counts", "--space", "manifold:2:100", "--max-degree", "24"], {}),
    # the series of each family through the cobar audit and `hilbert`: a
    # manifold of Betti number 1, a Betti-one model, a connected sum with
    # signs, and a connected sum of even total dimension
    ("verify-cobar-manifold-betti1", ["verify", "cobar", "--space", "manifold:2:1", "--max-degree", "12"], {}),
    ("verify-cobar-betti1-json", ["verify", "cobar", "--space", "betti1:4:5", "--max-degree", "14", "--format", "json"], {}),
    ("verify-cobar-csum-signs", ["verify", "cobar", "--space", "csum:2x3,3x2:signs=+,-", "--max-degree", "8"], {}),
    ("hilbert-csum-even-json", ["hilbert", "--space", "csum:2x4,3x3", "--max-degree", "12", "--format", "json"], {}),
    # the torsion path: promotions and transposed spots, three primes, Z/9
    ("verify-cobar-torsion-promoted-json", ["verify", "cobar", "--space", "cw:2:2,1;1,5", "--max-degree", "8", "--format", "json"], {}),
    ("verify-cobar-three-primes", ["verify", "cobar", "--space", "cw:2:6,0;0,10", "--max-degree", "7"], {}),
    ("verify-cobar-z9", ["verify", "cobar", "--space", "cw:2:0,9;9,0", "--max-degree", "7"], {}),
    # the byte boundary of the store's values; the wide form runs at D=7,
    # since at D=8 its Smith form takes about a minute
    ("verify-cobar-byte-narrow-json", ["verify", "cobar", "--space", "cw:2:0,127;127,0", "--max-degree", "8", "--format", "json"], {}),
    ("verify-cobar-byte-negation-json", ["verify", "cobar", "--space", "cw:2:0,-128;-128,0", "--max-degree", "8", "--format", "json"], {}),
    ("verify-cobar-byte-wide-json", ["verify", "cobar", "--space", "cw:2:128,127;127,126", "--max-degree", "7", "--format", "json"], {}),
    # sphere counts of each one-relator family, read off its own series: a
    # manifold with n = 4, one whose total passes the witness limit (no
    # witnesses, checked by necklace counts), a connected sum of mixed
    # sphere degrees and a skew torsion form
    ("manifold-n4-json", ["manifold", "--n", "4", "--betti", "3", "--max-dim", "16", "--format", "json"], {}),
    ("manifold-no-witnesses-json", ["manifold", "--n", "2", "--betti", "3", "--max-dim", "12", "--format", "json"], {}),
    ("csum-mixed-degrees-json", ["connected-sum", "--factors", "2x5,3x4", "--max-dim", "12", "--format", "json"], {}),
    ("cw-skew-torsion-json", ["cw", "--n", "3", "--matrix", "0,2,0,0;-2,0,0,0;0,0,0,1;0,0,-1,0", "--max-dim", "11", "--format", "json"], {}),
    # the closed-form Lie rank at large windows: a manifold to degree 300,
    # and an odd-n skew form to degree 600
    ("manifold-max-dim-300-json", ["manifold", "--n", "2", "--betti", "3", "--max-dim", "300", "--format", "json"], {}),
    ("cw-skew-max-dim-600-json", ["cw", "--n", "3", "--matrix", "0,1,0,0;-1,0,0,0;0,0,0,1;0,0,-1,0", "--max-dim", "600", "--format", "json"], {}),
    # necklace counts over letters of degrees 1 and 2 at a large window:
    # the walk table is empty at every length below half the degree
    ("counts-mixed-degrees-400-json", ["verify", "counts", "--space", "csum:2x3,2x3", "--max-degree", "400", "--format", "json"], {}),
    # a Betti number of 2000, whose form travels as its 2000 nonzero entries
    ("hilbert-betti-2000-json", ["hilbert", "--space", "manifold:2:2000", "--max-degree", "8", "--format", "json"], {}),
    # the help text of the program and of each subcommand, at 80 columns
    ("help", ["--help"], {}),
    ("help-manifold", ["manifold", "--help"], {}),
    ("help-connected-sum", ["connected-sum", "--help"], {}),
    ("help-cw", ["cw", "--help"], {}),
    ("help-betti-one", ["betti-one", "--help"], {}),
    ("help-verify", ["verify", "--help"], {}),
    ("help-moore", ["moore", "--help"], {}),
    ("help-hilbert", ["hilbert", "--help"], {}),
    ("help-lie-basis", ["lie-basis", "--help"], {}),
)

EMPTY = hashlib.sha256(b"").hexdigest()

# id -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "manifold": (0, "f8e74107ffc36dd02b13be60e78363231e4f56e95db67067e08ce4560604a1e6", EMPTY),
    "manifold-json": (0, "b2b972e82481eac64839d30c0a0c179ac634a2434346b3d6d723e840bbc6bf3b", EMPTY),
    "manifold-matrix": (0, "0d189f910c3a3424aee4e7c459c5f43ccb7513d81e547bbfe3dedd1d226e21cd", EMPTY),
    "manifold-betti1": (0, "36339d41a1d5873423f13d25e47dedcc5769ba6ba424ea4e9ddaec1b3e9b76bc", EMPTY),
    "csum": (0, "06376edacf6d54fbfa6031b94d73a4fde7575a2fc8f4f9e3f9b1f13e4285d8da", EMPTY),
    "csum-json": (0, "a02e3fc06e9d3b136ef7719b43acf1400eb26eb1abaaa0c1edefa11570ada245", EMPTY),
    "cw": (0, "e2ed01d2410965df2ae0ec24a8daccd2875993ab8cd8f7d9dabd474d098687a8", EMPTY),
    "cw-json": (0, "5022a5b30b35ea510d6b1fc21c0875f3a8146811e6d8b16e1ac22c1a04734d93", EMPTY),
    "cw-rank3": (0, "8357f3a71eae54efbe08c795c6ca96aafa6d2ddbdc02485aa017564413ea355f", EMPTY),
    "cw-plane-1-2": (0, "2fc4d014a96d8f19941f5bdeac7ccfd8da5d50be2ff93b971c1eede53cb198e5", EMPTY),
    "cw-plane-0-2": (0, "82e42793ec7f73b0ebe762c09cc9107045a6fde8901836eb9279a26400c0bf88", EMPTY),
    "cw-skew-plane-0-2": (0, "683b7d3e42d51e3a5d8b42af58b6319fa240e647bc255459074aca7272f40f2f", EMPTY),
    "cw-projected-plane": (0, "aaf90e09b323fa21d5d1659beb656065ab92a476b76cbc1aeec918a188968c25", EMPTY),
    "betti-one": (0, "3ad244d58ba8ad2ffbc2089bb3c86434694e931703c1933b9f641db975833c86", EMPTY),
    "betti-one-json": (0, "7a1ec0af17cc3f4637951c566053e27763dacc55ddc3cedf7a4a0641ec418c18", EMPTY),
    "betti-one-v8": (0, "255f5e6347ffdd0b319d9d52b9ead0aa7062d2fe6bb321d2b56dced4a334a7a4", EMPTY),
    "verify-cobar": (0, "cf635ebeac71bafa367abf292797ce05c1195056227e05527692c57f9912dc5a", EMPTY),
    "verify-cobar-json": (0, "fd4bf1aeae1f0810ee49d67b2f6c0e0e9d8fc1a9c1e07e0efd097cb22b30be5c", EMPTY),
    "verify-cobar-torsion": (0, "5f810fd1be18b6b0833e18a699348e8a0ce27f0c169bab47e714711188f6b48c", EMPTY),
    "verify-cobar-torsion-json": (0, "109df725935c06036bc5c8008088b76dc64ff66dceaeb61bfcd4d5d6cb017481", EMPTY),
    "verify-counts": (0, "a0771ee80894de6bf9e358668b62ecf6e7cf05e8c39453eb4993a15dcd51da05", EMPTY),
    "verify-counts-json": (0, "ce77b3e92726dae15763a81c5ea47e8f40c736544ab182c0b0852ac5279888ac", EMPTY),
    "hilbert": (0, "05c41a2fb063f45a6e00819ca9d6f1633c9e453d88aea2e24600de416d0cb5cf", EMPTY),
    "hilbert-json": (0, "3244035c7bf8c111cd682a3a29cabef62822ce13939a24f46b014cf8773ea163", EMPTY),
    "lie-basis": (0, "b54cae169883d9d9e9fd0258374198089037be726ee0466bf39c8ccd848cdd52", EMPTY),
    "lie-basis-json": (0, "955c90a70ad92432b7458ef6e5ce7a5669c738d136c68845ced9c4ec16f9c9a5", EMPTY),
    "moore": (0, "3f645aaa851477ae7cadf6aca7f13b2a8797427a01899bbb112f2dc340c8e46b", EMPTY),
    "moore-json": (0, "6ce8564d12cdee0cc481fafce88042bba954d6d7046964faedd10e0985219956", EMPTY),
    "hilbert-degree-minus-1": (2, EMPTY, "51aa0ddc665a900e466441076dca388f588b026ce464d10ef086508907fb4899"),
    "hilbert-degree-0": (0, "b23b4d3e4ac761bed99f1f3a3200013bef13574efaef316499d35998ec022e1a", EMPTY),
    "counts-degree-0": (2, EMPTY, "1b7eca8408942c2f23e4780bbad865272807c8f4514a1b976bde6c4ee5173210"),
    "lie-basis-degree-0": (2, EMPTY, "f7837a02bcb4636b96d09464174eb9254543c02568923851861a06b5d512644e"),
    "manifold-max-dim-1": (2, EMPTY, "ef61b17af8ab135fe7520dfc4bf978d5cd660d1ba733f5263b61ccf162723f85"),
    "unknown-family": (2, EMPTY, "8d3f5e8abf9cf9ddbb4caa213f977fd97d73217545c4f5ea0a54eec7700f7dbe"),
    "bad-signs": (2, EMPTY, "5f049cca692e9dfac1eac948cbae58acbfc38eeaec976678051ddc55036a982d"),
    "bad-matrix-entry": (2, EMPTY, "cfdd9dd5f94d805c227a02431bc9ad79a399245579615b2106783a2235ed9bbe"),
    "missing-flag": (2, EMPTY, "ea12b734694b21d467061b61fec2c9d2ed0870ad625ac92ea74f0398836bbc31"),
    "no-command": (2, EMPTY, "04b63d4d6f4cf5266a64b9d2915adc3e87c763bfbd557c76ed09ac1ad178528d"),
    "bad-choice": (2, EMPTY, "ea05e63ef3c504b40e3950ce6818be97caba93d5195b285a6b6bd703ebe6f573"),
    "bad-int": (2, EMPTY, "c52d90298cdddb3547d9a5e6476130783266ea96c899928555703fd63282b69a"),
    "invalid-manifold": (2, EMPTY, "49b11cbc93c5af103b9fc3b196fb9b3d71da41bfa1fc5505526e50d1e865a4ed"),
    "cw-rank-below-2": (2, EMPTY, "d6dbc5fa254bd977bc0cd662293b4e58af10141cb765f7cfe2991bf94cbeb27c"),
    "cw-one-cell": (2, EMPTY, "d6dbc5fa254bd977bc0cd662293b4e58af10141cb765f7cfe2991bf94cbeb27c"),
    "counts-betti-one": (2, EMPTY, "521420d14899844e082bacad00e1f0e821f238f4496384358c8f7f6abe2d58f9"),
    "hilbert-rank-one": (2, EMPTY, "590d029e08801ac0ce2050b3743a3f3d7f559471e05f0ea6f2f9e311ead306f6"),
    "cell-cap": (2, EMPTY, "43b3481a2895486fe5cc8a26a4e05d4fcff74c6d4be14320e6a7005f6ff90581"),
    "bad-cell-cap": (2, EMPTY, "8c031a24cd1ccfb4475273586345bd6b29539d225698242b7a94a1533ff9b52a"),
    "walk-guard": (2, EMPTY, "11eb82de5e2dd7fcfb7bd4a3819f0378a057f40dc6e76f6774db5d614c350325"),
    "cobar-degree-25": (0, "6761baa4037832478e858ca1765aa80774233974702901c9eb9db79ed6f54751", EMPTY),
    "stale-deep-flag": (2, EMPTY, "1ec064d3b0ae0b7eeee1d77838ce883405a0ad3b6b2e140e2ab0b2ed38a1b0ad"),
    "moore-cw-rank-below-2": (2, EMPTY, "3d5c30c89f88e87e33f2e4dd1b19f7c1655fb7a3d01cbcb114052c7f2fc57635"),
    "moore-cw-degenerate-rank3": (0, "a13d34da2591b850e7e077d629d6dc8fb5dd17d44c309a79c3e57f680de29fdf", EMPTY),
    "verify-cobar-rank-below-2": (2, EMPTY, "d6dbc5fa254bd977bc0cd662293b4e58af10141cb765f7cfe2991bf94cbeb27c"),
    "counts-rank-one": (2, EMPTY, "590d029e08801ac0ce2050b3743a3f3d7f559471e05f0ea6f2f9e311ead306f6"),
    "lie-basis-csum-even": (0, "afeda5d6aae8bd0b81d22b360a3957d1fdd5abeca393758aa6b1eb3a4aaeeaeb", EMPTY),
    "manifold-betti-100": (0, "e421997ca7d687776ab61014da9d5d0a00e95958bd34bd5bbb40637d55ee8c2a", EMPTY),
    "counts-betti-100": (0, "828707ccc562c1fa4adc41bdd9bc7975f7d6690b494b4707727a8e4778300800", EMPTY),
    "verify-cobar-manifold-betti1": (0, "0f8a9605b7d8384a6982d37ad87c2dc0cf9aa746f449b4b79141620310a72a89", EMPTY),
    "verify-cobar-betti1-json": (0, "2f6fa2b06de92c09c42ada6f1e7ddf042ac7b374d65949173617ccc2ec9a5b68", EMPTY),
    "verify-cobar-csum-signs": (0, "efd8e69f4fcc849f291a994026662d6db38a3fed612d1e2951d4e358a55bedbb", EMPTY),
    "hilbert-csum-even-json": (0, "1dfe69b2356d813626bbe5a368b9977e2c51d0877c897573030b1b2aa58e3670", EMPTY),
    "verify-cobar-torsion-promoted-json": (0, "610b22efd54ee5145ccd35aa2a98891023468b9a60511fa4eb9194caa69428d4", EMPTY),
    "verify-cobar-three-primes": (0, "04b965436f2c7765b75c821b885b493ad966fa1e83dc03019de18a69a3b113ea", EMPTY),
    "verify-cobar-z9": (0, "e09e95b6dfa5db508380251df444e6912ccc84c316fe8bc5f7abcbc6b403ae04", EMPTY),
    "verify-cobar-byte-narrow-json": (0, "ea369a1428fed73d8827a2f02074d446e08be595a398a1177c1ff25ca697327a", EMPTY),
    "verify-cobar-byte-negation-json": (0, "59dba4b44cfae78c0fea5d7280b05df44fd10dd7a7035fc6f0c72b6121895a7d", EMPTY),
    "verify-cobar-byte-wide-json": (0, "433d058d2df79538c6ce54ab54479a604bbb15dba4892280ec25e085c3c40c1d", EMPTY),
    "manifold-n4-json": (0, "98ecb64351738f6a4926ae923981dff522f1a9cb2085f45b38809126870c5112", EMPTY),
    "manifold-no-witnesses-json": (0, "e2963d1d5322b476969262470d497f6ecd150395284ee1350bf236df3644d4f5", EMPTY),
    "csum-mixed-degrees-json": (0, "ca3a73be8e0e52128c629e4623e67ca52cd00d5a26880f0c7213d87ef671be1c", EMPTY),
    "cw-skew-torsion-json": (0, "cd1f9b402879e1b73cba7234f07abf53e0191c35f35ec19194499779b129d59a", EMPTY),
    "manifold-max-dim-300-json": (0, "9d5dc679a188fec5a3ba69ff651bde73370d0a2a9e0746df97533e9995c906da", EMPTY),
    "cw-skew-max-dim-600-json": (0, "88e81ab7457a5f455e03124db46faa46ad70b7d7937f4823a9fd93264f7a86ec", EMPTY),
    "counts-mixed-degrees-400-json": (0, "3fcd24828ce9d577aa8c8f42b4135bde763f87468edd70347e25f73f2f4c2dc9", EMPTY),
    "hilbert-betti-2000-json": (0, "364dd3ccecb5eb792ff47ef9fcb30cc81330169bcc36cf9e13e20378e07d9b27", EMPTY),
    "help": (0, "ebcdc326e1c785b14f40cf21e95ccbc480203f3504cc9338186b5187ca61753e", EMPTY),
    "help-manifold": (0, "b151b3ab8b3583b4a91b9326387f594f347550f1ea5afc41b540d18413c554fb", EMPTY),
    "help-connected-sum": (0, "aefd20f90db937429e079fbea461ab064fe674259cfc6dfc3a28a186b9a58e01", EMPTY),
    "help-cw": (0, "e9009463f975a6da65561acc30283510e5878652f0105afe589ea79a2556729e", EMPTY),
    "help-betti-one": (0, "e58d4e5c1562f385f8589018652f32be116cd4163ac5e9dc15330d58b5f49fe5", EMPTY),
    "help-verify": (0, "31d9f9b8ad711f0b514f67b55920521d5afab2c4790454ef84b8059dc2edcbc5", EMPTY),
    "help-moore": (0, "18b9f2dc05c82dfd408ff7b677f8cf0bcfa7bda61e66d94dc8b734d0eb6fa63f", EMPTY),
    "help-hilbert": (0, "c894ad97c8a013d0e7c1d44a127a93bdfecb43a6ebde7546baf896ee0a2d60b3", EMPTY),
    "help-lie-basis": (0, "691a7613192aa803c31a89d5c5233e530e63a67f2aa88c7c7d7f7f661c765836", EMPTY),
}


def record(argv, env):
    """(exit code, sha256 of stdout, sha256 of stderr) of one request."""
    saved = {key: os.environ.get(key) for key in ("COLUMNS", "LOOPTOP_MAX_CELLS")}
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to the terminal width
    os.environ.pop("LOOPTOP_MAX_CELLS", None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv), out=out, err=err)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    return code, digest(out.getvalue()), digest(err.getvalue())


@pytest.mark.parametrize("name, argv, env", REQUESTS, ids=[r[0] for r in REQUESTS])
def test_cli_bytes_are_pinned(name, argv, env):
    assert record(argv, env) == GOLDEN[name]


def test_showcase_script_bytes_are_pinned():
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(SHOWCASE), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SHOWCASE_SHA256


if __name__ == "__main__":
    for name, argv, env in REQUESTS:
        code, *digests = record(argv, env)
        if (code, *digests) == GOLDEN.get(name):
            continue
        shown = ", ".join("EMPTY" if h == EMPTY else f'"{h}"' for h in digests)
        print(f'    "{name}": ({code}, {shown}),')
