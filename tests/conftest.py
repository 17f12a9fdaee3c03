"""Shared test helpers.

Collects acceptance-criterion status lines and prints them after the run:
plain writes to stdout are swallowed by capture for passing tests, so the
acceptance tests record their one-line verdicts here instead. Also holds
h_matrix, the dense pair reference that the library's pair kernel is
checked against.
"""

import numpy as np

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def h_matrix(scores) -> np.ndarray:
    """H(f_i - f_j) for all ordered pairs: 1 if greater, 1/2 on exact ties."""
    s = np.asarray(scores, dtype=float)
    # comparisons (not subtraction) so +inf sentinels never produce NaN
    return (s[:, None] > s[None, :]) + 0.5 * (s[:, None] == s[None, :])
