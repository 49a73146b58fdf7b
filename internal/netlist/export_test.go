package netlist

// ParseBenchRef exposes the reference reader to the external tests, which
// import the built-in generators (and so cannot live in this package).
var ParseBenchRef = parseBenchRef
