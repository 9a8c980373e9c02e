from hypothesis import settings

# Every run draws the same examples, and no example fails on a timing
# deadline when the machine is busy.
settings.register_profile("backfillsim", derandomize=True, deadline=None)
settings.load_profile("backfillsim")
