"""Default budgets of the searches, and the error of one that runs out.

The CLI's argparse defaults and its input-error tuple read them here, so
parsing the command line loads none of the modules that spend them.
"""

DEFAULT_COSET_LIMIT = 10 ** 6  # cosets a Todd-Coxeter table may define
DEFAULT_SEARCH_BUDGET = 10 ** 6  # nodes of the symplectic search
DEFAULT_MAX_SIMPLICES = 200_000  # simplices a dimension of the chain complex may have


class BudgetExceededError(RuntimeError):
    """A dimension's simplex count went past the configured budget."""
