"""One module per workload; each exposes ``run(ctx) -> Result``."""
