// An access-plan op built on the stack and copied into its batch: the
// copy reloads it with wide loads from the narrow stores that built it.
// expect-lint: construct-in-place

#include <vector>

struct Op
{
    unsigned char kind = 0;
    unsigned long va = 0;
};

struct Plan
{
    std::vector<Op> ops_;
    std::vector<Op> done_;

    void
    read(unsigned long va)
    {
        Op op;
        op.kind = 1;
        op.va = va;
        ops_.push_back(op);
    }

    void
    probe(unsigned long va)
    {
        // In place: what the rule asks for.
        ops_.emplace_back().va = va;
        // Another vector's push_back is not an op or a result.
        done_.push_back(Op{});
    }
};
