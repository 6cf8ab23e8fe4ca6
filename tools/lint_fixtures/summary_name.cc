// A BatchSummary counter registered under a hand-written name: a second
// list of the summary's fields, which a new field would not reach.
// expect-lint: summary-name

#include <string>

struct Registry;
void counter(Registry &r, const std::string &name);

void
attach(Registry &r, const std::string &prefix)
{
    counter(r, prefix + "reads");
    // "writes" in a comment is prose, not a name.
    counter(r, prefix + "writes_zero");
}
