module aorta/bench

go 1.22

require aorta v0.0.0

replace aorta => ../
