"""Run a miniature Monte-Carlo sweep and write the result artifacts.

Equivalent to `nearmimo sweep` with a reduced config; the CSV/JSON
outputs are byte-reproducible for a fixed config and seed.
"""

from nearmimo.harness import desk_profile, run_sweep

cfg = desk_profile(
    methods=("proposed-sbl", "proposed-omp3", "stage1-only"),
    snr_db=(5.0, 15.0),
    trials=5,
)

table = run_sweep(cfg, progress=lambda i, n: print(f"  {i}/{n}"))
table.to_csv("sweep_rows.csv")
table.aggregates_to_csv("sweep_aggregate.csv")
table.to_json("sweep.json")

print("\naggregates:")
for agg in table.aggregates():
    print(f"  {agg['method']:18s} @ {agg['snr_db']:5.1f} dB: "
          f"NMSE {agg['nmse_mean_db']:7.2f} dB over {agg['n_ok']} trials")
print("\nwrote sweep_rows.csv, sweep_aggregate.csv, sweep.json")
