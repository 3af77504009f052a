"""Analysis utilities: breakdowns, the paper's HW-model methodology,
figure rendering, the Table-3 footprint audit, and report formatting."""
