package errsink_test

import (
	"testing"

	"hybriddtm/internal/analysis/analysistest"
	"hybriddtm/internal/analysis/errsink"
)

func TestErrsink(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), errsink.Analyzer, "obs", "experiments", "other")
}
