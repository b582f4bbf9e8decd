package main

// recordedDigests are the output digests of each workload at the default
// seed, recorded from the program at the commit that added the benchmark.
// A run at the default seed fails if its digest differs.
var recordedDigests = map[string]string{
	"bfs-ada":      "b28f5beebc6efe6b1d39a064602c491acf6892593848ffa5b1ffea784c4dab91",
	"fig11-matrix": "ad3f01869f470a410e06f432a7bc5418988d70962218755e0778b466b238f753",
	"serve-mix":    "8b5a71204ad4b0e173129e68024191365892dc75136ebc8f872c3925bb435c1e",
}
