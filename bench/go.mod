module fuzzydb/bench

go 1.23

require fuzzydb v0.0.0

replace fuzzydb => ../
