"""``e2e/`` is the repo's one benchmark (``BENCHMARK.json``); the scripts
beside it are standalone CI gates, each measuring something it does not."""
