package ignore

// above demonstrates a sanctioned suppression: directive above the line.
func above(a, b float64) bool {
	//lint:ignore floateq fixture demonstrating a justified suppression
	return a == b
}

// inline demonstrates the end-of-line form.
func inline(a, b float64) bool {
	return a != b //lint:ignore floateq fixture inline suppression
}

// loud stays flagged: no directive.
func loud(a, b float64) bool {
	return a == b
}

// wrongCheck suppresses a different check, so floateq still fires.
func wrongCheck(a, b float64) bool {
	//lint:ignore maporder reason that does not match the finding's check
	return a == b
}

//lint:ignore floateq
var missingReason = 0

func use() {
	_ = above(1, 2)
	_ = inline(1, 2)
	_ = loud(1, 2)
	_ = wrongCheck(1, 2)
	_ = missingReason
}
