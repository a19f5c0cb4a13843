module madeleine2/benchmark

go 1.22

require madeleine2 v0.0.0

replace madeleine2 => ../
