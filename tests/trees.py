"""Random tree generators for property tests.

`random_tree_matrix` chooses diagonals strictly column-dominant
(|d_j| > valence), which makes the matrix negative definite, so every
generated matrix is a valid intersection matrix.  `random_any_tree_matrix`
redraws them from -1 down to -(valence + 2), so some are not negative
definite and some are not rational.
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


def random_divisor(rng: random.Random, size: int) -> list[int]:
    return [rng.randint(-6, 12) for _ in range(size)]
