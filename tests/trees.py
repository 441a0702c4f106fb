"""Random tree generators for property tests and the scale reports.

`random_tree_matrix` chooses diagonals strictly column-dominant
(|d_j| > valence), which makes the matrix negative definite, so every
generated matrix is a valid intersection matrix.  `random_any_tree_matrix`
redraws them from -1 down to -(valence + 2), so some are not negative
definite and some are not rational.  `seeded_rows` draws the chains and
trees of a given size that `scale.shapes` reports on and the canonical
reference test solves.
"""

import random


def random_tree_matrix(rng: random.Random, max_size: int = 8) -> list[list[int]]:
    size = rng.randint(1, max_size)
    rows = [[0] * size for _ in range(size)]
    for vertex in range(1, size):
        parent = rng.randrange(vertex)
        rows[vertex][parent] = rows[parent][vertex] = 1
    for j in range(size):
        valence = sum(rows[j][l] for l in range(size) if l != j)
        rows[j][j] = -(valence + rng.randint(1, 3))
    return rows


def random_any_tree_matrix(rng: random.Random, max_size: int = 7) -> list[list[int]]:
    rows = random_tree_matrix(rng, max_size)
    for j, row in enumerate(rows):
        valence = sum(row) - row[j]
        row[j] = -rng.randint(1, valence + 2)
    return rows


def tree_rows(diagonal, edges) -> list[list[int]]:
    """Intersection matrix from a diagonal and 1-based edge pairs."""
    rows = [[0] * len(diagonal) for _ in diagonal]
    for j, entry in enumerate(diagonal):
        rows[j][j] = entry
    for a, b in edges:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = 1
    return rows


def seeded_rows(rng: random.Random, shape: str, size: int) -> list[list[int]]:
    """A seeded "chain" E1 - E2 - ... - Es with E_j^2 drawn from -4..-2, or a
    seeded random "tree" numbered parent before child with E_j^2 one to
    three below minus the valence."""
    if shape == "chain":
        diagonal = [-rng.randint(2, 4) for _ in range(size)]
        return tree_rows(diagonal, [(j, j + 1) for j in range(1, size)])
    edges = [(rng.randrange(vertex) + 1, vertex + 1) for vertex in range(1, size)]
    valence = [0] * size
    for a, b in edges:
        valence[a - 1] += 1
        valence[b - 1] += 1
    return tree_rows([-(v + rng.randint(1, 3)) for v in valence], edges)


def random_divisor(rng: random.Random, size: int) -> list[int]:
    return [rng.randint(-6, 12) for _ in range(size)]
