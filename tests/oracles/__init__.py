"""Reference models kept only as test oracles (never imported by ``src/``)."""
