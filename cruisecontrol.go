package ftdse

import (
	"repro/ftdse/internal/ccapp"
)

// Cruise-controller constants of the paper's real-life example
// (Section 6): 32 processes on the ETM/ABS/TCM nodes, activated every
// CruiseControlPeriod with a CruiseControlDeadline, under k=2 transient
// faults with µ=2 ms recovery.
const (
	CruiseControlDeadline = ccapp.Deadline
	CruiseControlPeriod   = ccapp.Period
)

// CruiseControl reconstructs the paper's vehicle cruise-controller
// case study as a ready-to-solve Problem.
func CruiseControl() Problem { return newProblem(ccapp.New()) }
