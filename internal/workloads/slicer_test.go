package workloads_test

import "rpg2/internal/cfg"

// computeSlice is the backward slicer TestSlicesPinned holds to its table.
var computeSlice = cfg.ComputeSlice
