"""TPC-DS substrate: schema, synthetic generator, queries."""
