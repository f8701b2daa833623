package orders

// Hooks for the external tests in suite_test.go, which need the suite
// sweep from internal/eval (an importer of this package).
var (
	Contenders      = (*Sweep).contenders
	FullScanRange   = fullScanRange
	FullScanSampled = fullScanSampled
	Chosen          = chosen
)
