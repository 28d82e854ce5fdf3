package client

// SubmitBody is the body builder behind Submit and SubmitWait, for the
// allocation gate.
var SubmitBody = submitBody
