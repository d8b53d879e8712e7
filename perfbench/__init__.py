"""urlab benchmark: workloads, tracing and the plain-numpy reference."""
