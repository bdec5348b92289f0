"""The named checks of scripts/oracle_sweep.py: each passes on the engines, and a broken engine fails
its check on a diagonal algebra and on a d = 3 one, not only on full d = 2."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ncfree import joint
from ncfree.algebra import Algebra, LinMap
from ncfree.jacobi import phi_transform
from ncfree.joint import JointModel
from ncfree.partitions import BLUE

_spec = importlib.util.spec_from_file_location(
    "oracle_sweep", Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize("alg", [Algebra("full", 2), Algebra("diagonal", 3)], ids=["full2", "diagonal3"])
@pytest.mark.parametrize("name", sorted(sweep.CHECKS))
def test_every_check_passes_on_the_engines(name, alg):
    _, _, check, _ = sweep.CHECKS[name]
    for algebraic in (False, True):  # degree 6 is below every reach
        assert sweep.deviation(*check(alg, np.random.default_rng(26), algebraic, 6)) <= sweep.TOLERANCE


def depth_one(mp):
    """e_pi draws every block's lambda or alpha at depth 1."""
    mp.setattr(joint, "relative_depths", lambda p: (1,) * len(p.color))


def red_as_blue(mp):
    """free_convolve_word gives red the blue parameters."""
    blue_twice = lambda m, cs: joint.free_convolve_word(JointModel(m.params1, m.params1), cs)
    mp.setattr(sweep, "free_convolve_word", blue_twice)


def red_as_blue_in_nc_sum(mp):
    """nc_sum gives red the blue parameters."""
    engine = sweep.nc_sum
    mp.setattr(sweep, "nc_sum", lambda cs, colors, params: engine(cs, colors, dict.fromkeys(params, params[BLUE])))


def depths_from_zero(mp):
    """moment indexes the parameters from 0: depth k reads lambda_{k-1} and alpha_{k-1}, depth 1 the zero and
    the identity.  (Reading each alpha through its transposed dense form would not do: on a diagonal algebra a
    Kraus map's dense form is diagonal.)"""
    engine = sweep.moment
    mp.setattr(sweep, "moment", lambda p, cs: engine(phi_transform(p), cs))


def red_as_blue_in_joint_moment(mp):
    """joint_moment gives red the blue parameters."""
    mp.setattr(sweep, "joint_moment", lambda m, w: joint.joint_moment(JointModel(m.params1, m.params1), w))


def transposed_blocks(mp):
    """alpha, applied block by block to a point of M_m(B), reads block (j, i) into block (i, j)."""
    apply = LinMap.apply
    mp.setattr(LinMap, "apply", lambda m, b: apply(m, b.swapaxes(0, 1) if b.ndim == 4 else b))


BROKEN = {"fock": depths_from_zero, "freeness": red_as_blue_in_joint_moment, "epi": depth_one,
          "colourings": red_as_blue, "meixner": red_as_blue, "free-fock": red_as_blue_in_nc_sum,
          "cf": transposed_blocks}


@pytest.mark.parametrize("alg", [Algebra("diagonal", 2), Algebra("full", 3)], ids=["diagonal2", "full3"])
@pytest.mark.parametrize("name", sorted(BROKEN))
def test_a_broken_engine_fails_its_check(name, alg, monkeypatch):
    BROKEN[name](monkeypatch)
    _, _, check, _ = sweep.CHECKS[name]
    assert sweep.deviation(*check(alg, np.random.default_rng(26), False, 6)) > sweep.TOLERANCE


@pytest.mark.parametrize("argv", [["--trials", "0"], ["--trials", "-5"], ["--degree", "-1"]])
def test_sweep_refuses_an_empty_or_negative_run(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["oracle_sweep.py", *argv])
    with pytest.raises(SystemExit) as exit_:
        sweep.main()
    assert exit_.value.code == 2
