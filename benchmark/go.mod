// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the root module's ./... patterns. Its import
// paths stay under repro/, so the pinned internal packages resolve.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
