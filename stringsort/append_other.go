//go:build !unix

package stringsort

import "os"

// appendOnly reports true where the open mode cannot be read, so the output
// goes through the temporary file.
func appendOnly(*os.File) bool { return true }
