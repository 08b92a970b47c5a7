// The benchmark is a module of its own so that it builds with its own build
// file; the replace directive points it at the repository it measures, and
// the docstore/ path prefix lets it import docstore/internal packages.
module docstore/benchmark

go 1.24

require docstore v0.0.0

replace docstore => ../
