package profile

// StatsEqual is statsEqual for the external test package, whose
// paper-scale tests import internal/scenario, which imports this package.
var StatsEqual = statsEqual

// ProfilerStringViews is profilerStringViews for the paper-scale test.
var ProfilerStringViews = profilerStringViews

// OracleCoerced is oracleCoerced, the row-path oracle of coerced views,
// for the paper-scale test.
var OracleCoerced = oracleCoerced
