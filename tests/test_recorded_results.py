"""The envelope searches reproduce recorded results bit for bit.

The values below were recorded with the search that ran its starts one
after another and built and scored one disc per objective call.  The
lockstep search, which scores the live starts of every family at a
point as one batch per round, cut at ``hartogs.TRACE_BATCH_NODES``
boundary nodes, must give the same floats, also with one row per batch:
every result is compared through ``repr``, and a trace through a digest
of the ``repr`` of its values.

``minimize_envelope`` searches first at ``envelope.SEARCH_M`` nodes and
falls back to the search at the configured M.  The recorded values pin
that fine search, run with the coarse level off; ``RECORDED_TWO_LEVEL``
pins the two-level results of the same requests.
"""

import hashlib

import numpy as np
import pytest

from conftest import searched_at
from discenv import config, envelope, hartogs
from discenv.domains import counterexample_pair, planar_annulus_pair, \
    shell_pair
from discenv.envelope import EnvelopeRequest, minimize_envelope, \
    partial_envelope, sample_feasible_values
from discenv.expressions import obstacle_from_expression
from discenv.families import BlaschkeFamily, ConstantFamily, \
    PolynomialFamily, ShellFamily, VerticalFamily
from discenv.functionals import QuadratureGrid


def digest(values):
    text = repr([float(v) for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def annulus_request(expr, x, **kwargs):
    w, x_spec = planar_annulus_pair()
    families = [ConstantFamily([x]),
                BlaschkeFamily([x], n_zeros=1, s_range=(1.0, 2.0)),
                BlaschkeFamily([x], n_zeros=2, s_range=(1.0, 2.0))]
    return EnvelopeRequest(pair=(w, x_spec),
                           phi=obstacle_from_expression(expr, 1), x=[x],
                           families=families, grid=QuadratureGrid(256),
                           **kwargs)


def hartogs_request():
    cfg = config.validate_config({
        "experiment": "recorded",
        "pair": {"variant": "hartogs", "n": 2, "base_radius": 1.0,
                 "r": 0.25, "R": 1.0}})
    w, x_spec, _, _ = config.build_pair(cfg)
    centre = [0.3 + 0.1j, 0.0]
    return EnvelopeRequest(
        pair=(w, x_spec),
        phi=obstacle_from_expression("re(z1) + abs(z2)*abs(z2)", 2, True),
        x=centre, families=[VerticalFamily(centre, 1, (0.25, 1.0)),
                            VerticalFamily(centre, 2, (0.25, 1.0))],
        grid=QuadratureGrid(512), starts=4, budget=40)


def shell_request():
    w, x_spec = shell_pair(2)
    centre = [0.4 - 0.2j, 0.3j]
    return EnvelopeRequest(
        pair=(w, x_spec),
        phi=obstacle_from_expression("abs(z1)*abs(z1) - abs(z2)", 2),
        x=centre, families=[PolynomialFamily(centre, degree=2, scale=2.0),
                            ShellFamily(centre)],
        grid=QuadratureGrid(128), starts=2, budget=50, seed=3)


# (value, best_params, family, start_index, max_violation, feasible,
#  len(trace), digest(trace))
RECORDED_ENVELOPES = {
    "annulus": (
        lambda: annulus_request("log(abs(z1))", 0.5, starts=3, budget=60),
        ("5.620252497932585e-06",
         "[5.620252497993282e-06, 0.0032879047393798828]", "blaschke", 0,
         "0.0", True, 60, "e1e837817bec5f61")),
    # a complex centre: the solved Blaschke zero rotates a complex target
    "annulus_complex": (
        lambda: annulus_request("log(abs(z1))", 0.3 + 0.4j, starts=3,
                                budget=60),
        ("8.630249292984613e-16",
         "[8.881784197001252e-16, 2.8844085240657034]", "blaschke", 2,
         "0.0", True, 60, "85e92f7acc715d85")),
    "hartogs": (
        hartogs_request,
        ("0.3625002245637538", "[-1.386292564613088]", "vertical", 1,
         "0.0", True, 40, "fdd9ff1a826de4c8")),
    "shell": (
        shell_request,
        ("0.5619003792125719",
         "[0.8555862433027008, 0.7690098638933636, -0.22802487951793204, "
         "-0.4712650292609828, 0.7287043613523014, 0.11229914675905805, "
         "1.1675550932403367, -0.8469935555909662]", "polynomial", 1,
         "0.0", True, 50, "7d17d420e0432d4e")),
}


def outcome(res):
    return (repr(res.value), repr(res.best_params.tolist()), res.family,
            res.start_index, repr(res.max_violation), res.feasible,
            len(res.trace), digest(res.trace))


def fine_only(monkeypatch):
    """Turn the coarse search level off: every request searches at its
    configured M alone."""
    monkeypatch.setattr(envelope, "SEARCH_M", 2 ** 20)


@pytest.mark.parametrize("name", sorted(RECORDED_ENVELOPES))
def test_minimize_envelope_gives_the_recorded_result(monkeypatch, name):
    fine_only(monkeypatch)
    build, expected = RECORDED_ENVELOPES[name]
    assert outcome(minimize_envelope(build())) == expected


def one_row_batches(monkeypatch):
    """Cut every search round into batches of one row; returns the list
    that collects the rows of each scored batch."""
    rows = []
    evaluate = envelope._evaluate
    monkeypatch.setattr(envelope, "_evaluate", lambda req, groups, *args: (
        rows.append(sum(len(P) for _, P in groups))
        or evaluate(req, groups, *args)))
    monkeypatch.setattr(hartogs, "TRACE_BATCH_NODES", 1)
    return rows


@pytest.mark.parametrize("name", ["annulus", "hartogs"])
def test_one_row_batches_give_the_recorded_result(monkeypatch, name):
    fine_only(monkeypatch)
    rows = one_row_batches(monkeypatch)
    build, expected = RECORDED_ENVELOPES[name]
    assert outcome(minimize_envelope(build())) == expected
    assert set(rows) == {1}


# the results of the two-level search: its winner is found at M = 64 and
# certified at the configured M (the shell request's polynomial winner
# has the fine search's value and parameters, by another trace)
RECORDED_TWO_LEVEL = {
    "annulus": (
        "1.1135219689200447e-06",
        "[1.1135219687878883e-06, 0.003225206263363363]", "blaschke", 0,
        "0.0", True, 60, "702cbc0f81e10bd9"),
    "annulus_complex": (
        "1.1135219689235142e-06",
        "[1.1135219687878883e-06, 0.003225206263363363]", "blaschke", 0,
        "0.0", True, 60, "cdc9d11b1b1de609"),
    "hartogs": (
        "0.3625004474856847", "[-1.3862907812472287]", "vertical", 0,
        "0.0", True, 40, "ce195de9e7e13aac"),
    "shell": (
        "0.5619003792125719",
        "[0.8555862433027008, 0.7690098638933636, -0.22802487951793204, "
        "-0.4712650292609828, 0.7287043613523014, 0.11229914675905805, "
        "1.1675550932403367, -0.8469935555909662]", "polynomial", 1,
        "0.0", True, 50, "3ff12b19870dde86"),
}


@pytest.mark.parametrize("one_row", [False, True])
@pytest.mark.parametrize("name", sorted(RECORDED_TWO_LEVEL))
def test_two_level_search_gives_the_recorded_result(monkeypatch, name,
                                                    one_row):
    rows = one_row_batches(monkeypatch) if one_row else [1]
    sizes = searched_at(monkeypatch)
    req = RECORDED_ENVELOPES[name][0]()
    res = minimize_envelope(req)
    assert outcome(res) == RECORDED_TWO_LEVEL[name]
    assert sizes == [64] and res.search_m == 64
    assert len(res.disc.samples) == req.grid.M
    assert set(rows) == {1}


def no_coarse_disc(monkeypatch):
    """Make every search at 64 nodes find no disc."""
    search = envelope._search

    def refuse(req, *args):
        if req.grid.M == 64:
            raise envelope.InfeasibleEnvelope("refused")
        return search(req, *args)

    monkeypatch.setattr(envelope, "_search", refuse)


@pytest.mark.parametrize("refusal", ["agreement", "no coarse disc"])
@pytest.mark.parametrize("name", sorted(RECORDED_ENVELOPES))
def test_a_refused_coarse_search_gives_the_fine_result(monkeypatch, name,
                                                       refusal):
    """With the coarse winner refused (its values at 64 nodes and at M
    fail the agreement check) or no coarse disc found, the search runs
    again at the configured M and its result, disc included, is the
    fine-only one, bit for bit.  The fine result is computed here, not
    read from the pins, which hold at one SIMD level only."""
    build = RECORDED_ENVELOPES[name][0]
    with monkeypatch.context() as patch:
        fine_only(patch)
        fine = minimize_envelope(build())
    if refusal == "agreement":
        monkeypatch.setattr(envelope, "AGREEMENT", -1.0)
    else:
        no_coarse_disc(monkeypatch)
    sizes = searched_at(monkeypatch)
    req = build()
    res = minimize_envelope(req)
    assert outcome(res) == outcome(fine)
    assert res.disc.samples.tobytes() == fine.disc.samples.tobytes()
    assert sizes == [64, req.grid.M]
    assert res.search_m == fine.search_m == req.grid.M


RECORDED_PARTIALS = {
    ("log(abs(z1))", 0.5): {0.5: "2.9989788194787175e-06",
                            0.2: "2.9989788194787175e-06",
                            0.05: "2.9989788194787175e-06"},
    ("re(z1)", 1.5): {0.5: "1.4886218865665601",
                      0.2: "1.4886218865665601",
                      0.05: "1.4886218865665601"},
}


@pytest.mark.parametrize("expr, x", sorted(RECORDED_PARTIALS))
@pytest.mark.parametrize("eps", [0.5, 0.2, 0.05])
def test_partial_envelope_gives_the_recorded_value(expr, x, eps):
    req = annulus_request(expr, x, starts=2, budget=60)
    assert repr(partial_envelope(req, eps)) == RECORDED_PARTIALS[expr, x][eps]


@pytest.mark.parametrize("expr, x", sorted(RECORDED_PARTIALS))
def test_partial_envelope_in_one_row_batches_gives_the_recorded_value(
        monkeypatch, expr, x):
    rows = one_row_batches(monkeypatch)
    req = annulus_request(expr, x, starts=2, budget=60)
    assert repr(partial_envelope(req, 0.2)) == RECORDED_PARTIALS[expr, x][0.2]
    assert set(rows) == {1}


# (number of feasible discs, digest(values), repr(min(values)))
RECORDED_SAMPLES = (135, "0ae0e5df9e782635", "-0.27245300840827513")


def test_sample_feasible_values_gives_the_recorded_values():
    # 40 draws at M = 128 span more than one scoring batch per family
    w, x_spec, phi = counterexample_pair()
    centre = [0.0, 0.0]
    families = [ConstantFamily(centre),
                BlaschkeFamily(centre, n_zeros=1, s_range=(0.05, 0.29)),
                BlaschkeFamily(centre, n_zeros=1, s_range=(0.71, 0.99)),
                BlaschkeFamily(centre, n_zeros=2, s_range=(0.71, 0.99)),
                PolynomialFamily(centre, degree=3, scale=0.15)]
    req = EnvelopeRequest(pair=(w, x_spec), phi=phi, x=centre,
                          families=families, grid=QuadratureGrid(128),
                          seed=3)
    values = sample_feasible_values(req, 40)
    assert (values.size, digest(values), repr(float(np.min(values)))) == \
        RECORDED_SAMPLES
