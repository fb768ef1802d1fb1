from random import Random

import pytest

from multicx.generators import corpus
from oracles import mixed_commutator_instance, mixed_gauge_instance


@pytest.fixture(scope="session")
def acceptance_corpus():
    """200 generated multicomplexes cycling the three profiles; width <= 6
    and per-degree dimensions <= 4 by construction."""
    return corpus(200)


@pytest.fixture(scope="session")
def mixed_hodge_corpus():
    """100 mixed complexes carrying the vanishing transferred structure:
    mostly single-degree gauge orbits plus a batch of commutator-type
    instances whose homotopy words survive to higher weights."""
    rng = Random(2024)
    out = [mixed_gauge_instance(rng)[0] for _ in range(88)]
    rng2 = Random(77)
    out += [mixed_commutator_instance(rng2) for _ in range(12)]
    return out
