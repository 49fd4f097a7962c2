module fixture

go 1.24
