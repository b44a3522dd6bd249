package exec

// What the external exec_test files (which may import core and discri,
// as this package cannot) need from inside the package.
var (
	OracleGroupBy  = oracleGroupBy
	GroupByWorkers = groupBy
	SameGroups     = sameGroups
	SelectWhere    = selectWhere
)
