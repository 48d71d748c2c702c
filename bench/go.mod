// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the replace lets it import the
// parent's internal packages (its module path is below ndpipe/).
module ndpipe/bench

go 1.22

require ndpipe v0.0.0

replace ndpipe => ../
