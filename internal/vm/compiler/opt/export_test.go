package opt

// MaxInlineGrowth is the most one InlineCalls may grow a caller, in
// bytecodes: every pass's growth budget.
const MaxInlineGrowth = inlinePasses * maxGrowth
