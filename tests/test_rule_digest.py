"""SHA-256 digests of the rule text, pinned from a tree whose rule
builders looped over every index of the constant tables and conjugated
each symbol rule through Form.conj.

Each digest runs over the ``to_text`` of a set of Forms, each preceded by
its label, in a fixed order.  They cover every generator rule of the flat
and curved tables and of the three negative controls at n = 1 and 2;
every symbol rule the curved d^2 reaches there, with the conjugate of each
symbol that is not its own conjugate up to a sign; and the n = 1 starred
forms and displayed Bianchi combinations.  A rewrite of how the rules are
built must leave every one of them unchanged."""
import hashlib

import pytest

from qcframe.forms import FAMILIES, Sym
from qcframe.rules import bianchi_residuals, build_rules, star_forms


def digest(items):
    h = hashlib.sha256()
    for label, form in items:
        h.update(f"{label}\n{form.to_text()}\n".encode())
    return h.hexdigest()


def generator_rules(rules):
    return [(rules.ext.labels[g], rules.gen_rule(g)) for g in sorted(rules.gen_rules)]


def reached_symbols(rules):
    """The symbols in the generator rules, which d^2 differentiates, and
    the conjugate of each one whose family is neither j-real nor real."""
    syms = {s for form in rules.gen_rules.values() for p in form.terms.values()
            for mono in p.terms for s in mono}
    syms |= {Sym(s.family, s.idx, not s.conj) for s in list(syms)
             if not any(FAMILIES[s.family][2:])}
    return sorted(syms, key=repr)


CONFIGS = {
    "flat": {"mode": "flat"},
    "curved": {"mode": "curved"},
    "unsym-V": {"mode": "curved", "tamper": "unsym-V"},
    "unsym-S": {"mode": "curved", "tamper": "unsym-S"},
    "published": {"mode": "curved", "published": True},
}

GENERATOR_DIGESTS = {
    (1, "flat"):
        "21a14d01113bdee8179c49137f62f71c52df997039b77929db3af41385547bf4",
    (1, "curved"):
        "02a93856e9a6e822790297c2bca75ae3ee28dcdb0417cf4d92f0ef708e13115d",
    (1, "unsym-V"):
        "c245ae56a5df76bfca65210d854c8078f2c774274fc67f1fe8260f091d919be4",
    (1, "unsym-S"):
        "bc997624ab1fef9213aae23c40380654041890b7517497df458d03cd105c6253",
    (1, "published"):
        "b8c419cb27c71c8576782f18b7856be0da2d9431b753a5639b72d89393e45ae6",
    (2, "flat"):
        "a3ea4acb832a6a59b3a88558257c0b3d3778f7cd798468a527480dad4f9fbe32",
    (2, "curved"):
        "6cae08a20ec9a33fc7a6cafecf71c2368c6385cfc0ae855e9fac2b764f6b1031",
    (2, "unsym-V"):
        "433378bfb71d513928dce5b746422664ea1a13324804c5dba4639623ba72f18a",
    (2, "unsym-S"):
        "6a2a0d320a5b634ce02ea3cc2dcfe6a7341fc602a4242e82ea882237ddac1562",
    (2, "published"):
        "b841bc5aa9365f5c8a369164576e18b92c4da01c87e07ec8bb83ade7632a4983",
}

SYMBOL_DIGESTS = {
    1: (35, "cc2cc2ce396e0b29a4c735627ed6e28685ca30e1386bdd658e911379c446b8c8"),
    2: (126, "f6aa03b3d3f6da5bdc16fb351d04eacc5aef13fcc11fa75fae7a5fc058337b9a"),
}

STAR_DIGEST = "e3b76ba721671df4f9cb15e2f8f8f9acaae9d9b5c39fb005a7152b783b1816a4"
BIANCHI_DIGEST = "49cd4ab2e5e5c522ee8986d27a3c489706fc721e2b4cf2db6016a15d78c160e1"


@pytest.mark.parametrize("n, config", sorted(GENERATOR_DIGESTS),
                         ids=[f"n{n}-{c}" for n, c in sorted(GENERATOR_DIGESTS)])
def test_generator_rule_text_pinned(n, config):
    rules = build_rules(n, **CONFIGS[config])
    assert digest(generator_rules(rules)) == GENERATOR_DIGESTS[n, config]


@pytest.mark.parametrize("n", sorted(SYMBOL_DIGESTS))
def test_symbol_rule_text_pinned(n):
    rules = build_rules(n, "curved")
    syms = reached_symbols(rules)
    count, want = SYMBOL_DIGESTS[n]
    assert len(syms) == count
    assert digest((repr(s), rules.sym_rule(s)) for s in syms) == want


def test_star_and_bianchi_text_pinned():
    stars = star_forms(1)
    assert digest((f"{fam}{idx}", stars[fam, idx]) for fam, idx in sorted(stars)) == STAR_DIGEST
    res = bianchi_residuals(1)
    assert digest((name, res[name]) for name in sorted(res)) == BIANCHI_DIGEST
