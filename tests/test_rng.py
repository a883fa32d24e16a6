from pobsim.rng import derive_seed


def test_derive_seed_is_pinned():
    # The first 8 bytes of SHA-256 over "<root>/<name>", big-endian: every
    # stream of every trial starts from these, on any Python version.
    assert derive_seed(0, "election") == 8069654219430101127
    assert derive_seed(42, "behavior/v0007") == 15269887846979826970

