"""Evaluation harnesses reproducing the paper's Section 5 tables.

One module per table (see DESIGN.md's table index): Table 3 dataset
statistics, Table 5 user-study proxy, Table 6 quantitative analysis,
plus the efficiency/scalability sweeps behind Figures 7–14's headline
claims.
"""
